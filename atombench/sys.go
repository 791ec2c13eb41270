package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the process's peak resident set by polling
// /proc/self/statm. A poller rather than getrusage's ru_maxrss, because
// a traced run measures two passes in one process and each pass needs
// its own peak.
type rssSampler struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	wg   sync.WaitGroup
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for {
		cur := s.peak.Load()
		if rss <= cur || s.peak.CompareAndSwap(cur, rss) {
			return
		}
	}
}

// finish stops the poller and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	s.sample()
	close(s.stop)
	s.wg.Wait()
	return float64(s.peak.Load()) / (1 << 20)
}

// host is the fingerprint every result carries, so a number is never
// read apart from the machine and code that produced it.
type host struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// fingerprint describes this host and the code under test. The commit
// comes from ATOMBENCH_COMMIT (run.sh sets it from git when the checkout
// is a work tree); the source hash covers every Go file and go.mod under
// root either way, so an exported tree is identified too.
func fingerprint(root string) host {
	h := host{
		Commit:     os.Getenv("ATOMBENCH_COMMIT"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		SourceHash: sourceHash(root),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
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

// sourceHash hashes the path and contents of every .go file and go.mod
// under root, skipping hidden directories (build output, VCS data).
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		sum.Write([]byte(p))
		sum.Write([]byte{0})
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))
}
