package main

import (
	"math/rand"
	"sync"
	"syscall"
	"unsafe"
)

// The benchmark's hosts are shared virtual machines whose speed drifts
// by a quarter or more over minutes, as neighbours come and go: the
// same operation's CPU time moves with it, and a run's median moves
// with the minute it ran in. To take that drift out, every run times a
// fixed reference kernel of the harness's own right after each set-up
// and each operation, and scales that set-up's or operation's CPU time
// by refNominal over the kernel's time. The reported times are then
// the CPU seconds the work would take on a host that runs the kernel
// in refNominal seconds. The kernel is not program code, so no change to the
// program moves it. Its buffers are mapped outside the Go heap and it
// allocates nothing, so the program's heap does not move it either,
// and it does not move the collector's pacing of the program.

// refNominal is the kernel's median CPU time on the host the baseline
// in BASELINE.md was measured on.
const refNominal = 0.16

// refThreads is how many copies of the kernel run at once: one per
// worker of the sweep and whatif fan-outs, so the kernel loads the
// host's CPUs as those operations do.
const refThreads = 2

// refKernel mixes the kinds of work a replay does: dependent loads
// from memory (the event and job tables), integer hashing (digests and
// cache keys) and sift-ups in a binary heap (the event queue).
type refKernel struct {
	buf  []byte
	heap []float64
}

// refChase is a single cycle over 1M slots (4 MiB), shared read-only
// by the kernels: larger than the host's per-core caches.
var refChase []int32

// refKernels builds the kernels. Their buffers, 5 MiB, stay resident
// for the whole run, so every peak_rss_mb includes them.
func refKernels() ([]*refKernel, error) {
	r := rand.New(rand.NewSource(9))
	if refChase == nil {
		chase, err := mapped[int32](1 << 20)
		if err != nil {
			return nil, err
		}
		perm := r.Perm(len(chase))
		for i, slot := range perm {
			chase[slot] = int32(perm[(i+1)%len(perm)])
		}
		refChase = chase
	}
	ks := make([]*refKernel, refThreads)
	for i := range ks {
		buf, err := mapped[byte](256 << 10)
		if err != nil {
			return nil, err
		}
		heap, err := mapped[float64](1 << 15)
		if err != nil {
			return nil, err
		}
		r.Read(buf)
		ks[i] = &refKernel{buf: buf, heap: heap[:0]}
	}
	return ks, nil
}

// mapped returns n zeroed elements of anonymous memory outside the Go
// heap. It is never unmapped: the kernels live as long as the process.
func mapped[T any](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

func (k *refKernel) run() uint64 {
	p := int32(0)
	for i := 0; i < 1<<19; i++ {
		p = refChase[p]
	}
	h := uint64(14695981039346656037)
	for r := 0; r < 20; r++ {
		for _, b := range k.buf {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	x := uint64(p)
	hp := k.heap[:0]
	for i := 0; i < 100000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		hp = append(hp, float64(x>>11)/(1<<53))
		for j := len(hp) - 1; j > 0 && hp[(j-1)/2] > hp[j]; j = (j - 1) / 2 {
			hp[(j-1)/2], hp[j] = hp[j], hp[(j-1)/2]
		}
		if len(hp) == cap(hp) {
			hp = hp[:1]
		}
	}
	return h ^ uint64(len(hp))
}

// refCPU runs every kernel once, all at once, and returns the process
// CPU seconds they took.
func refCPU(ks []*refKernel) float64 {
	var wg sync.WaitGroup
	out := make([]uint64, len(ks)) // kept, so the work is not optimised away
	cpu0 := cpuSeconds()
	for i, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = k.run()
		}()
	}
	wg.Wait()
	return cpuSeconds() - cpu0
}
