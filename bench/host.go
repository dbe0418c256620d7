package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostFacts is written into every results file: numbers from hosts of
// different sizes must not be compared.
type hostFacts struct {
	NProc    int    `json:"nproc"`
	P        int    `json:"p"`
	Go       string `json:"go_version"`
	CPUModel string `json:"cpu_model"`
	Commit   string `json:"commit"`
}

// maxP caps the benchmark's parallelism so results from larger hosts
// stay comparable in shape.
const maxP = 4

// sizeHost applies the host-sizing rule: P = min(nproc, 4), GOMAXPROCS
// set to P, and a GOMAXPROCS asked for beyond nproc refused.
func sizeHost() (hostFacts, error) {
	n := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > n {
			return hostFacts{}, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host", v, n)
		}
	}
	p := n
	if p > maxP {
		p = maxP
	}
	runtime.GOMAXPROCS(p)
	return hostFacts{NProc: n, P: p, Go: runtime.Version(), CPUModel: cpuModel(), Commit: commit()}, nil
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

// commit is the VCS revision the binary was built from, when the build
// happened inside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
