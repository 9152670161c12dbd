package bench

import (
	"strings"
	"testing"
	"time"
)

func TestTimerStats(t *testing.T) {
	var tm Timer
	for i := 1; i <= 100; i++ {
		tm.Add(time.Duration(i) * time.Millisecond)
	}
	if tm.N() != 100 {
		t.Fatalf("N = %d", tm.N())
	}
	if got := tm.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("Mean = %v", got)
	}
}

func TestTimerEmpty(t *testing.T) {
	var tm Timer
	if tm.N() != 0 || tm.Mean() != 0 {
		t.Fatal("empty timer returned nonzero")
	}
}

func TestTimerTime(t *testing.T) {
	var tm Timer
	d := tm.Time(func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Fatalf("Time = %v", d)
	}
	if tm.N() != 1 {
		t.Fatalf("N = %d", tm.N())
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("E1 test", "k", "latency", "spread")
	tab.Row(10, 1500*time.Microsecond, 123.456)
	tab.Row(20, 2*time.Second, 1.0)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"E1 test", "k", "latency", "spread", "1.50ms", "2.00s", "123.456"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestFormatDur(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.5µs",
		2500 * time.Microsecond: "2.50ms",
		3 * time.Second:         "3.00s",
	}
	for d, want := range cases {
		if got := formatDur(d); got != want {
			t.Fatalf("formatDur(%v) = %q, want %q", d, got, want)
		}
	}
}
