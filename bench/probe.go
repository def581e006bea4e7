package main

import (
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine probe. The VM the benchmark runs on shares its memory
// system and its disk with neighbours: for seconds to minutes at a time
// everything that touches memory runs up to 1.6 times slower (CPU time per
// op inflates with it, steal time stays 0), while a register-only loop
// keeps its speed within 7%. No statistic over one run's ops removes an
// episode that outlasts the run, so the harness measures the machine
// beside the program: between the blocks of timed ops it runs one fixed
// piece of work of its own and scales each block's times by how fast that
// work ran against its nominal time. The work has up to three phases:
//
//   - walk: a random read-modify-write walk over 4 MiB per CPU (one core's
//     L2 here), the accesses independent of each other;
//   - chase: a chain of dependent loads over 32 MiB per CPU, every one a
//     miss that waits for the one before;
//   - sync: small appends to a file in the run's scratch directory, each
//     followed by fsync — only for a workload that writes a log itself.
//
// Over ten seeds per workload the ops of the four workloads that allocate
// 0.4–0.5 GB/s slowed down with the probe's time to the power 0.8–1.3
// (taken as 1), those of executor-skew, whose tasks spin in registers, to
// the power 0.08: its times are left as measured. Which phases a workload
// is scaled by is its follows(). README.md, "Repeatability", has the
// numbers behind each choice.
const (
	walkWords  = 1 << 19 // per CPU, 8 bytes each
	walkSteps  = 2_000_000
	chaseWords = 1 << 22
	chaseSteps = 60_000
	syncWrites = 32
	syncBytes  = 400 // about one memo record

	// The nominal times are what the phases took on the quiet 2-vCPU VM the
	// op counts were sized on. They only fix the unit: a scaled time reads
	// "on a machine that runs the probe in its nominal time".
	memoryNominal = 16 * time.Millisecond
	syncNominal   = syncWrites * 200 * time.Microsecond
)

// follows says which of the machine's shared resources a workload's times
// follow, and so which phases of the probe they are scaled by.
type follows int

const (
	followsNothing follows = iota
	followsMemory
	followsMemoryAndDisk
)

// probe owns the memory the walk and the chase run over, and the sync
// phase's file. The memory is mapped outside the Go heap: as live heap it
// would raise the heap target of the daemon workloads many times over and
// with it change how often their GC runs.
type probe struct {
	mem     []byte
	file    *os.File // nil without a sync phase
	nominal time.Duration
	sinks   [pinnedProcs][8]uint64 // one cache line per CPU
}

const (
	walkBytes  = walkWords * 8
	chaseBytes = chaseWords * 8
)

// newProbe maps the memory, fills the chase region and runs the probe once
// untimed, which pays the page faults. dir is where the sync phase's file
// goes; "" leaves the phase out.
func newProbe(dir string) (*probe, error) {
	mem, err := syscall.Mmap(-1, 0, pinnedProcs*(walkBytes+chaseBytes),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &probe{mem: mem, nominal: memoryNominal}
	for g := 0; g < pinnedProcs; g++ {
		x := uint64(g + 1)
		for i, region := 0, p.chaseRegion(g); i < len(region); i++ {
			x = x*6364136223846793005 + 1442695040888963407
			region[i] = x
		}
	}
	if dir != "" {
		p.file, err = os.Create(filepath.Join(dir, "probe.dat"))
		if err != nil {
			p.close()
			return nil, err
		}
		p.nominal += syncNominal
	}
	p.sample()
	return p, nil
}

// close drops the file and the mapping; neither holds anything to lose.
func (p *probe) close() {
	if p.file != nil {
		p.file.Close()
		os.Remove(p.file.Name())
	}
	_ = syscall.Munmap(p.mem)
}

func (p *probe) words(offset, n int) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(&p.mem[offset])), n)
}

func (p *probe) walkRegion(g int) []uint64 { return p.words(g*walkBytes, walkWords) }

func (p *probe) chaseRegion(g int) []uint64 {
	return p.words(pinnedProcs*walkBytes+g*chaseBytes, chaseWords)
}

// sample runs the probe once, the memory phases on every CPU at the same
// time, and returns how long it took.
func (p *probe) sample() time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < pinnedProcs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			walk, chase := p.walkRegion(g), p.chaseRegion(g)
			x, acc := uint64(12345+g), uint64(0)
			for i := 0; i < walkSteps; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				j := (x >> 33) & (walkWords - 1)
				acc += walk[j]
				walk[j] = acc
			}
			j := uint64(g + 1)
			for i := 0; i < chaseSteps; i++ {
				j = (chase[(j>>40)&(chaseWords-1)]+j)*6364136223846793005 + 1442695040888963407
			}
			p.sinks[g][0] = acc + j
		}(g)
	}
	wg.Wait()
	if p.file != nil {
		var record [syncBytes]byte
		for i := 0; i < syncWrites; i++ {
			// A failed write only makes the sample short; the workload's own
			// log on the same disk fails its ops then.
			_, _ = p.file.Write(record[:])
			_ = p.file.Sync()
		}
	}
	return time.Since(t0)
}

// gauge reads the machine's speed over intervals of the run: mark opens
// one, lap closes it (and opens the next) and returns the speed to scale
// its times by — the probe's nominal time over the mean of the samples on
// either side, so below 1 the machine was slow and a measured time is
// scaled down. With no probe it reads 1.
type gauge struct {
	p    *probe
	last time.Duration
}

// newGauge makes the gauge for a workload; dir is the run's scratch
// directory.
func newGauge(f follows, dir string) (*gauge, error) {
	switch f {
	case followsMemory:
		dir = ""
	case followsNothing:
		return &gauge{}, nil
	}
	p, err := newProbe(dir)
	return &gauge{p: p}, err
}

func (g *gauge) close() {
	if g.p != nil {
		g.p.close()
	}
}

func (g *gauge) mark() {
	if g.p != nil {
		g.last = g.p.sample()
	}
}

func (g *gauge) lap() float64 {
	if g.p == nil {
		return 1
	}
	before := g.last
	g.last = g.p.sample()
	return 2 * float64(g.p.nominal) / float64(before+g.last)
}
