package obs

import (
	"runtime"
	"time"
)

// Process health gauges: goroutine count, heap occupancy and GC pause
// telemetry from runtime.MemStats, published into the Default registry
// so /seriesz and psi-bundle report show process health sparklines
// next to the server_* serving series. Unlike the counter sites these
// must be polled, so ArmRuntimeGauges hooks the refresh onto the
// sampler's pre-sample tick — each retained sample carries values no
// older than one interval.
var (
	ProcGoroutines  = Default.Gauge("process_goroutines", "live goroutines (runtime.NumGoroutine), refreshed on sampler ticks")
	ProcHeapInuse   = Default.Gauge("process_heap_inuse_bytes", "bytes in in-use heap spans (runtime.MemStats.HeapInuse)")
	ProcHeapAlloc   = Default.Gauge("process_heap_alloc_bytes", "bytes of allocated heap objects (runtime.MemStats.HeapAlloc)")
	ProcGCCycles    = Default.Gauge("process_gc_cycles", "completed GC cycles (runtime.MemStats.NumGC)")
	ProcGCPauseLast = Default.Gauge("process_gc_pause_last_nanos", "most recent GC stop-the-world pause in nanoseconds")
)

// UpdateRuntimeGauges refreshes the process_* gauges from the runtime.
// ReadMemStats briefly stops the world, so this belongs on a sampler
// tick (ArmRuntimeGauges), not on a request path.
func UpdateRuntimeGauges() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ProcGoroutines.Set(int64(runtime.NumGoroutine()))
	ProcHeapInuse.Set(int64(ms.HeapInuse))
	ProcHeapAlloc.Set(int64(ms.HeapAlloc))
	ProcGCCycles.Set(int64(ms.NumGC))
	if ms.NumGC > 0 {
		ProcGCPauseLast.Set(int64(ms.PauseNs[(ms.NumGC+255)%256]))
	}
}

// ArmRuntimeGauges registers UpdateRuntimeGauges as a pre-sample hook
// on the sampler, so every retained sample sees fresh process health.
// Call before the sampler starts.
func ArmRuntimeGauges(s *Sampler) {
	s.OnBeforeSample(func(time.Time) { UpdateRuntimeGauges() })
}
