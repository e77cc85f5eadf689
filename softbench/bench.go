package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"github.com/soft-testing/soft/internal/obs"
)

// bench is the state of one run: its settings, the inputs set-up made, and
// the correctness tally every workload reports into.
type bench struct {
	ctx  context.Context
	cfg  config
	stem string // output file prefix under .bench_out

	attempted, failed int

	packetOut map[string][]byte // Packet Out results files made by set-up
}

// pass is one timed pass of a workload. The workload fills the work-shaped
// fields; runPass fills the resource figures around it.
type pass struct {
	wall, cpu, allocMB float64
	cold, warm         float64
	paths              int // result paths the pass explored or read
	bytes              int // results-file bytes the pass wrote or read

	// layer holds per-layer figures the benchmark timed from outside.
	layer map[string]float64
	// counters is the delta of the program's own metrics over the pass.
	counters map[string]float64
	// trace is the pass's Chrome trace (traced passes only).
	trace []byte
}

// check counts one correctness check; a false ok is a failed operation.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.cfg.log, "softbench: check failed: "+format+"\n", args...)
	}
}

// storeDir is the campaign's result store. It is removed outside the timed
// window before and after every pass, so each cold pass starts empty.
func (b *bench) storeDir() string { return filepath.Join(b.cfg.outDir, "store") }

// runPass runs one timed pass of w and measures it from outside. The
// pass's output checks run after the timed window.
func (b *bench) runPass(w workload, i int, traced bool) (*pass, error) {
	p := &pass{layer: map[string]float64{}}
	if err := os.RemoveAll(b.storeDir()); err != nil {
		return nil, err
	}
	var tr *obs.Tracer
	if traced {
		tr = obs.StartTracing()
	}
	before := readCounters()
	runtime.GC()
	c0, a0, t0 := cpuSeconds(), heapAlloc(), time.Now()
	verify, err := w.pass(b, p, i)
	p.wall = time.Since(t0).Seconds()
	p.cpu = cpuSeconds() - c0
	p.allocMB += float64(heapAlloc()-a0) / (1 << 20)
	p.counters = diffCounters(before, readCounters())
	if tr != nil {
		tr.Stop()
		var buf bytes.Buffer
		if werr := tr.WriteJSON(&buf); werr != nil && err == nil {
			err = werr
		}
		p.trace = buf.Bytes()
	}
	if err == nil {
		err = verify()
	}
	if rerr := os.RemoveAll(b.storeDir()); rerr != nil && err == nil {
		err = rerr
	}
	return p, err
}

// cpuSeconds is user+system CPU of this process and of its reaped children
// (the campaign's fleet worker).
func cpuSeconds() float64 {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	ns := self.Utime.Nano() + self.Stime.Nano() + kids.Utime.Nano() + kids.Stime.Nano()
	return float64(ns) / 1e9
}

// heapAlloc is the cumulative count of Go heap bytes allocated.
func heapAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint describes the machine and build a result set came from.
func fingerprint(seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
