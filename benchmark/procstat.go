package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a snapshot of the process-wide costs the end-to-end metrics
// divide by the number of queries.
type procSnap struct {
	cpu       time.Duration // user + system
	mallocs   uint64
	allocated uint64 // bytes
	gcCycles  uint32
	gcPause   time.Duration
}

func snapProc() (procSnap, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSnap{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPause:   time.Duration(ms.PauseTotalNs),
	}, nil
}

func (a procSnap) since(b procSnap) procSnap {
	return procSnap{
		cpu:       a.cpu - b.cpu,
		mallocs:   a.mallocs - b.mallocs,
		allocated: a.allocated - b.allocated,
		gcCycles:  a.gcCycles - b.gcCycles,
		gcPause:   a.gcPause - b.gcPause,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}
