package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc(func(w *MetricWriter) {
		w.Counter("octopus_test_requests_total", "Requests served.", 12, "endpoint", "im")
		w.Gauge("octopus_test_depth", "Buffer depth.", 3)
	})
	// A second collector contributing to the same family must merge
	// under one # TYPE header.
	r.RegisterFunc(func(w *MetricWriter) {
		w.Counter("octopus_test_requests_total", "Requests served.", 7, "endpoint", "radar")
	})
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	r.RegisterFunc(func(w *MetricWriter) {
		w.Histogram("octopus_test_latency_seconds", "Request latency.", h.Snapshot(), "endpoint", "im")
	})

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	fams, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, text)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	reqs, ok := byName["octopus_test_requests_total"]
	if !ok {
		t.Fatalf("requests family missing:\n%s", text)
	}
	if reqs.Type != "counter" || len(reqs.Samples) != 2 {
		t.Fatalf("requests family = %+v, want counter with 2 samples", reqs)
	}
	if strings.Count(text, "# TYPE octopus_test_requests_total") != 1 {
		t.Fatalf("family split across multiple TYPE headers:\n%s", text)
	}

	lat, ok := byName["octopus_test_latency_seconds"]
	if !ok || lat.Type != "histogram" {
		t.Fatalf("latency family = %+v, want histogram", lat)
	}
	var infVal, countVal float64
	for _, s := range lat.Samples {
		if s.Name == "octopus_test_latency_seconds_bucket" && s.Labels["le"] == "+Inf" {
			infVal = s.Value
		}
		if s.Name == "octopus_test_latency_seconds_count" {
			countVal = s.Value
		}
	}
	if infVal != 2 || countVal != 2 {
		t.Fatalf("+Inf bucket = %g, _count = %g, want 2 and 2", infVal, countVal)
	}

	// Families must render sorted.
	iDepth := strings.Index(text, "# TYPE octopus_test_depth")
	iLat := strings.Index(text, "# TYPE octopus_test_latency_seconds")
	iReq := strings.Index(text, "# TYPE octopus_test_requests_total")
	if !(iDepth < iLat && iLat < iReq) {
		t.Fatalf("families not sorted:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc(func(w *MetricWriter) {
		w.Gauge("octopus_test_gauge", "g", 1, "path", `a"b\c`+"\n")
	})
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(buf.String())
	if err != nil {
		t.Fatalf("escaped exposition does not parse: %v\n%s", err, buf.String())
	}
	got := fams[0].Samples[0].Labels["path"]
	if want := `a"b\c` + "\n"; got != want {
		t.Fatalf("label round-trip = %q, want %q", got, want)
	}
}

func TestRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	r.Register(RuntimeCollector())
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(buf.String())
	if err != nil {
		t.Fatalf("runtime exposition does not parse: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
	}
	for _, want := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_pause_seconds_total",
		"go_gc_cycles_total", "go_gc_heap_allocs_bytes_total", "go_gc_heap_allocs_objects_total"} {
		if !names[want] {
			t.Errorf("runtime family %s missing", want)
		}
	}
}

// TestCountHistogramExposition covers the raw-unit histogram writer the
// per-endpoint cost distributions use: bucket edges and _sum must be in
// counts, not seconds, and the output must parse as a valid histogram.
func TestCountHistogramExposition(t *testing.T) {
	var h Histogram
	h.ObserveValue(3)
	h.ObserveValue(100)
	h.ObserveValue(5000)
	r := NewRegistry()
	r.RegisterFunc(func(w *MetricWriter) {
		w.CountHistogram("octopus_test_nodes_touched", "Nodes per query.", h.Snapshot(), "endpoint", "im")
	})
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(buf.String())
	if err != nil {
		t.Fatalf("count-histogram exposition does not parse: %v\n%s", err, buf.String())
	}
	fam := fams[0]
	if fam.Type != "histogram" {
		t.Fatalf("family type = %q, want histogram", fam.Type)
	}
	var sum, count float64
	covered := false
	for _, s := range fam.Samples {
		switch s.Name {
		case "octopus_test_nodes_touched_sum":
			sum = s.Value
		case "octopus_test_nodes_touched_count":
			count = s.Value
		case "octopus_test_nodes_touched_bucket":
			// Raw units: an edge of 4 (not 4e-9s) must already cover the
			// first observation.
			if s.Labels["le"] == "4" && s.Value >= 1 {
				covered = true
			}
		}
	}
	if sum != 5103 || count != 3 {
		t.Errorf("sum = %g count = %g, want raw 5103 and 3", sum, count)
	}
	if !covered {
		t.Errorf("no raw-unit bucket edge 4 covering the first sample:\n%s", buf.String())
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":   "orphan_metric 1\n",
		"bad value":             "# TYPE m counter\nm notanumber\n",
		"bad metric name":       "# TYPE 0bad counter\n0bad 1\n",
		"unterminated labels":   "# TYPE m counter\nm{a=\"x\" 1\n",
		"unquoted label":        "# TYPE m counter\nm{a=x} 1\n",
		"duplicate TYPE":        "# TYPE m counter\n# TYPE m counter\nm 1\n",
		"unknown type":          "# TYPE m widget\nm 1\n",
		"histogram without inf": "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 3\nh_count 2\n",
		"decreasing buckets":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 5\n",
		"count vs inf mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 4\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(text); err == nil {
			t.Errorf("%s: parse accepted invalid exposition:\n%s", name, text)
		}
	}
}
