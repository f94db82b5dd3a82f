package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"distlock"
)

// hostFingerprint describes the machine and the code a run measured, so
// a saved result says where it came from.
func hostFingerprint() map[string]any {
	h := map[string]any{
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"goos":       goruntime.GOOS,
		"goarch":     goruntime.GOARCH,
		"cpu_model":  cpuModel(),
		"source":     sourceDigest(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value == "true"
			}
		}
	}
	if _, ok := h["commit"]; !ok {
		h["commit"] = "unknown (built outside a git checkout; see source)"
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

// sourceDigest is a SHA-256 over the Go sources and go.mod files of the
// checkout the benchmark runs from. It names the measured code even where
// the checkout carries no git metadata.
func sourceDigest() string {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		sum.Write([]byte(p))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opKind is one kind of call into the service.
type opKind int

const (
	opBegin opKind = iota
	opLock
	opUnlock
	opCommit
	opRegister
	opDeregister
	numOpKinds
)

var opNames = [numOpKinds]string{"begin", "lock", "unlock", "commit", "register", "deregister"}

// outcomes counts attempted and failed calls by kind, and failures by
// cause. Each client goroutine owns one and they are merged after the
// clients stop, so the hot path does no shared writes.
type outcomes struct {
	attempted, failed [numOpKinds]int64
	deadline, aborted int64
}

func (o *outcomes) fail(k opKind, err error) {
	o.failed[k]++
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		o.deadline++
	case errors.Is(err, distlock.ErrTxnAborted):
		o.aborted++
	}
}

func (o *outcomes) add(x *outcomes) {
	for k := range o.attempted {
		o.attempted[k] += x.attempted[k]
		o.failed[k] += x.failed[k]
	}
	o.deadline += x.deadline
	o.aborted += x.aborted
}

func (o *outcomes) attemptedOps() int64 {
	var n int64
	for _, a := range o.attempted {
		n += a
	}
	return n
}

func (o *outcomes) failedTotal() int64 {
	var n int64
	for _, f := range o.failed {
		n += f
	}
	return n
}

func (o *outcomes) describe() map[string]any {
	d := map[string]any{"deadline": o.deadline, "abort": o.aborted}
	for k, name := range opNames {
		if o.attempted[k] > 0 {
			d[name] = map[string]int64{"attempted": o.attempted[k], "failed": o.failed[k]}
		}
	}
	return d
}
