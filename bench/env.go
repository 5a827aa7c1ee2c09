package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// printEnv reports where and when a run was taken: numbers from different
// commits, toolchains or machine classes are not comparable.
func printEnv() {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# env commit=%s go=%s nproc=%d GOMAXPROCS=%d cpu=%q time=%s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		procField("/proc/cpuinfo", "model name"), time.Now().UTC().Format(time.RFC3339))
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown" where there is no such file or line.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is this process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM")) // "12345 kB"
	if len(fields) != 2 || fields[1] != "kB" {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	return kb / 1024, err
}
