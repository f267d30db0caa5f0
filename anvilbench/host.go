package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// provenance describes the host a result was measured on, so a reader can
// discard runs taken on a different machine or under co-tenant load.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func hostProvenance() provenance {
	p := provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			p.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return p
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// probeInitFlag makes the binary exit as soon as package initialisation
// (the experiment registry, workload profile tables) has run.
const probeInitFlag = "-probe-init"

// probeInit times n launches of this binary that exit right after package
// init: what a user pays before the first experiment can start.
func probeInit(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, probeInitFlag)
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, err
		}
		xs = append(xs, time.Since(t).Seconds())
	}
	return xs, nil
}
