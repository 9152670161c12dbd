package obs

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// RuntimeCollector exposes Go runtime health — heap, GC cycles and
// pauses, cumulative allocation, goroutines — plus process uptime.
// Register it once per registry.
func RuntimeCollector() Collector {
	start := time.Now()
	return CollectorFunc(func(w *MetricWriter) {
		// GC cycles and cumulative heap allocation come from
		// runtime/metrics: the counters that show whether per-query
		// garbage drives GC pacing.
		gc := []metrics.Sample{
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		}
		metrics.Read(gc)
		w.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(gc[0].Value.Uint64()))
		w.Counter("go_gc_heap_allocs_bytes_total", "Cumulative bytes allocated on the heap.", float64(gc[1].Value.Uint64()))
		w.Counter("go_gc_heap_allocs_objects_total", "Cumulative heap objects allocated.", float64(gc[2].Value.Uint64()))

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Gauge("go_goroutines", "Number of goroutines that currently exist.", float64(runtime.NumGoroutine()))
		w.Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
		w.Gauge("go_memstats_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", float64(ms.HeapSys))
		w.Gauge("go_memstats_heap_objects", "Number of allocated heap objects.", float64(ms.HeapObjects))
		w.Gauge("go_memstats_next_gc_bytes", "Heap size at which the next GC cycle starts.", float64(ms.NextGC))
		w.Counter("go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.", float64(ms.TotalAlloc))
		w.Counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", float64(ms.PauseTotalNs)/1e9)
		if ms.NumGC > 0 {
			w.Gauge("go_gc_last_pause_seconds", "Duration of the most recent GC stop-the-world pause.",
				float64(ms.PauseNs[(ms.NumGC+255)%256])/1e9)
		}
		w.Gauge("go_gomaxprocs", "Value of GOMAXPROCS.", float64(runtime.GOMAXPROCS(0)))
		w.Counter("process_uptime_seconds_total", "Seconds since the process registered its runtime collector.", time.Since(start).Seconds())
	})
}
