package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host time on the reference box is not a steady unit. It is a two-vCPU
// guest on a shared host: a register-only loop's per-second median ranged
// 0.96-1.51 ms within one minute, and the median wall time of ten-second
// runs of one workload on one seed ranged 30-90% over a quarter of an hour
// (README.md "Noise" has the measurements). Ten seconds of repetitions
// cannot average that out. So the benchmark measures the machine as well as
// the program: between repetitions it times a basket of fixed kernels of
// its own, each bound by a different resource, and divides each
// repetition's wall time by how much slower than nominal the basket ran
// around it. The kernels live in this file and touch nothing of the program
// under test, so a change to the program cannot move them. Raw host times
// are printed beside the scaled ones; ratios of times taken together (the
// traced run's shares) need no scaling.

const (
	// One 16 MiB region holds three disjoint pointer-chase cycles: 256 KiB
	// that stays in a core's L2, 4 MiB that spills to the shared last-level
	// cache, and the rest, 11.75 MiB, that mostly misses to memory.
	ringWords = 4 << 20
	l2Words   = 64 << 10
	llcWords  = 1 << 20

	aluSteps    = 2_000_000 // x4 independent chains
	branchSteps = 1_000_000
	l2Steps     = 1_000_000
	llcSteps    = 300_000
	memSteps    = 100_000

	// What each kernel takes on a quiet core of the reference box.
	aluNominal    = 4000 * time.Microsecond
	branchNominal = 4300 * time.Microsecond
	l2Nominal     = 4100 * time.Microsecond
	llcNominal    = 15000 * time.Microsecond
	memNominal    = 14400 * time.Microsecond
	streamNominal = 2900 * time.Microsecond
)

var (
	yardSink atomic.Uint64
	ring     []uint32
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// oneCycle fills words with a single cycle through all of them (Sattolo's
// shuffle): words[i] is the index that follows i.
func oneCycle(words []uint32) {
	for i := range words {
		words[i] = uint32(i)
	}
	x := uint64(12345)
	for i := len(words) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		words[i], words[j] = words[j], words[i]
	}
}

// chase follows a cycle for steps dependent loads, thread t of threads
// starting its share of the way round.
func chase(words []uint32, t, threads, steps int) uint64 {
	p := uint32(t * len(words) / threads)
	for i := 0; i < steps; i++ {
		p = words[p]
	}
	return uint64(p)
}

// yardstick runs the basket once on the calling thread and returns the
// geometric mean of the kernels' slowdowns against nominal. The kernels are
// bound by arithmetic throughput, branch misprediction, the latency of each
// cache level and of memory, and memory bandwidth: what slows a shared host
// (a busy sibling hyperthread, a crowded cache, a clock step) slows each
// differently, and the equal-weight basket tracked all five workloads' drift
// where each single kernel failed on some (README.md "Noise"). About 45 ms.
func yardstick(t, threads int) float64 {
	var logSum, kernels float64
	start := time.Now()
	lap := func(nominal time.Duration) {
		now := time.Now()
		logSum += math.Log(now.Sub(start).Seconds() / nominal.Seconds())
		kernels++
		start = now
	}

	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < aluSteps; i++ {
		a, b, c, d = xorshift(a), xorshift(b), xorshift(c), xorshift(d)
	}
	lap(aluNominal)

	x, acc := uint64(7), uint64(0)
	for i := 0; i < branchSteps; i++ {
		x = xorshift(x)
		switch {
		case x&1 == 0:
			acc += x >> 3
		case x&2 == 0:
			acc ^= x
		default:
			acc -= 3
		}
	}
	lap(branchNominal)

	acc += chase(ring[:l2Words], t, threads, l2Steps)
	lap(l2Nominal)
	acc += chase(ring[l2Words:l2Words+llcWords], t, threads, llcSteps)
	lap(llcNominal)
	acc += chase(ring[l2Words+llcWords:], t, threads, memSteps)
	lap(memNominal)

	for _, w := range ring {
		acc += uint64(w)
	}
	lap(streamNominal)

	yardSink.Add(a + b + c + d + acc)
	return math.Exp(logSum / kernels)
}

// mapRing maps the kernels' memory and lays the cycles out. Mapped, not
// made: 16 MiB on the Go heap would double the heap goal and so change how
// often the program under test collects garbage.
func mapRing() error {
	raw, err := syscall.Mmap(-1, 0, 4*ringWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mmap the yardstick's memory: %w", err)
	}
	ring = unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), ringWords)
	oneCycle(ring[:l2Words])
	oneCycle(ring[l2Words : l2Words+llcWords])
	oneCycle(ring[l2Words+llcWords:])
	return nil
}

// machineSlowdown runs the yardstick on as many threads as the workload
// keeps busy (one for the local workloads, two for the fleet's two workers:
// a host that squeezes one vCPU slows a two-thread pipeline and must slow
// its yardstick too) and returns how much slower than nominal the machine
// runs right now, averaged over the threads. mapRing comes first.
func machineSlowdown(threads int) float64 {
	slow := make([]float64, threads)
	var wg sync.WaitGroup
	for t := range slow {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slow[t] = yardstick(t, threads)
		}()
	}
	wg.Wait()
	var sum float64
	for _, s := range slow {
		sum += s
	}
	return sum / float64(threads)
}

// atRefSpeed converts a host duration to seconds at the reference machine
// speed, given the slowdown measured just before and just after it.
func atRefSpeed(d time.Duration, before, after float64) float64 {
	return d.Seconds() / ((before + after) / 2)
}
