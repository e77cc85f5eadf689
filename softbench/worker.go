package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"github.com/soft-testing/soft"
)

// workerEnv, when set to a coordinator address, turns this binary into the
// campaign's fleet worker. The worker runs in its own process, as `soft
// work` does: an in-process worker would drain the coordinator's shared
// tracer at every traced lease and lose the coordinator's spans.
const workerEnv = "SOFTBENCH_WORKER_ADDR"

// workerWait bounds how long a finished campaign waits for its worker to
// exit after the fleet shut it down.
const workerWait = 30 * time.Second

// runWorker serves one campaign's fleet at one engine worker, then prints
// the Go heap bytes it allocated so the parent can count them.
func runWorker(addr string) int {
	a0 := heapAlloc()
	err := soft.Work(context.Background(), addr, soft.WithWorkers(1), soft.WithWorkerName("softbench-worker"))
	fmt.Println(heapAlloc() - a0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "softbench worker:", err)
		return 1
	}
	return 0
}

type workerProc struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

func startWorker(addr string) (*workerProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	w := &workerProc{cmd: exec.Command(exe)}
	w.cmd.Env = append(os.Environ(), workerEnv+"="+addr)
	w.cmd.Stdout = &w.out
	w.cmd.Stderr = os.Stderr
	if err := w.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fleet worker: %w", err)
	}
	return w, nil
}

// wait reaps the worker, killing it if it outlives workerWait, and returns
// the heap bytes it reported.
func (w *workerProc) wait() (uint64, error) {
	done := make(chan error, 1)
	go func() { done <- w.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(workerWait):
		w.cmd.Process.Kill()
		<-done
		return 0, fmt.Errorf("fleet worker did not exit within %v", workerWait)
	}
	if err != nil {
		return 0, fmt.Errorf("fleet worker: %w", err)
	}
	n, perr := strconv.ParseUint(strings.TrimSpace(w.out.String()), 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("fleet worker: bad alloc report %q", w.out.String())
	}
	return n, nil
}
