package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few cores of a shared machine whose
// speed drifts with its neighbours' load, by up to 2x over minutes. A wall
// clock reading alone then says as much about the neighbours as about the
// program. So a run also times a fixed reference kernel, code of the
// benchmark's own that no change to the program can speed up or slow down,
// between its setups and iterations, and reports its time metrics in
// reference seconds: host seconds scaled by refNominal over the kernel's
// median time in that run. On a host where the kernel takes refNominal, a
// reference second is a second; a program change moves a metric by the
// same share in either unit.

// refNominal is the reference kernel's duration that defines one reference
// second. It is a unit, not a baseline: any constant would do, and this one
// is close to the kernel's time on a 2-CPU x86-64 cloud host.
const refNominal = 0.024

// The kernel has two parts of about equal time on the host it was tuned on.
// Timed next to small population, fig13 and soak runs for seven minutes on
// a shared 2-CPU Xeon guest, the arithmetic chain alone drifted about half
// as much as the workloads did and the 8 MiB ring walk about as much,
// while a 1 MiB ring walk and a map of 64 Ki entries drifted more than the
// workloads and less in step with them.
const (
	// refALUSteps is the length of a chain of dependent integer operations,
	// which reads the core's speed: clock frequency, time taken by the
	// hypervisor and the host's other tenants.
	refALUSteps = 3_000_000
	// refChaseSteps is the number of dependent loads around refRing, which
	// read the speed of the shared cache and memory.
	refChaseSteps = 75_000
	// refRingBytes sizes the ring: larger than a core's private cache, so
	// each load goes to the shared cache or memory.
	refRingBytes = 8 << 20
)

// refSink keeps the kernel's results live.
var refSink [64]uint64

// refRing is one random cycle through every slot of a ring of 32-bit
// links. It lives outside the Go heap so that it neither counts towards
// peak_heap_mb nor changes how often the program's heap is collected.
var refRing = sync.OnceValues(func() ([]uint32, error) {
	mem, err := syscall.Mmap(-1, 0, refRingBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference ring: %w", err)
	}
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refRingBytes/4)
	// Sattolo's algorithm: a random permutation that is a single cycle.
	for i := range ring {
		ring[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring, nil
})

// refKernel is one goroutine's share of the reference work. It allocates
// nothing, so the collector, whose work depends on the program's heap,
// never runs inside it.
func refKernel(ring []uint32, seed uint64) uint64 {
	x := seed | 1
	for i := 0; i < refALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x9e3779b97f4a7c15
	}
	p := uint32(x % uint64(len(ring)))
	for i := 0; i < refChaseSteps; i++ {
		p = ring[p]
	}
	return x + uint64(p)
}

// refBlocks is how many reference samples are taken between two timed
// steps.
const refBlocks = 3

// refSample runs the kernel once on every CPU, as the workloads run their
// workers, and returns the host seconds it took.
func refSample(ring []uint32) float64 {
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			refSink[g%len(refSink)] = refKernel(ring, uint64(g)+1)
		}(g)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// refSamples appends refBlocks reference samples to refs. A full
// collection first ends any collection of the program's heap, and an
// untimed pass then brings the ring back into the shared cache, so what the
// program left behind there, which depends on the program, does not reach
// the samples.
func refSamples(refs []float64) ([]float64, error) {
	ring, err := refRing()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	refSample(ring)
	for i := 0; i < refBlocks; i++ {
		refs = append(refs, refSample(ring))
	}
	return refs, nil
}

// refScale returns the factor that turns a run's host seconds into
// reference seconds: refNominal over the median of the run's reference
// samples. One factor per run, from samples spread across it, follows the
// host's drift from run to run without adding the scatter of single
// samples to each iteration.
func refScale(refs []float64) float64 {
	return refNominal / median(refs)
}
