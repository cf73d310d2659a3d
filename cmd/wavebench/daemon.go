package main

// Driving the shipped daemon: build cmd/waved once, boot a fresh
// process per workload, time its set-up, read its memory high-water
// mark, and stop it with SIGTERM.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildWaved compiles the repository's cmd/waved into dir and returns
// the binary's path. The build is not timed.
func buildWaved(root, dir string) (string, error) {
	bin := filepath.Join(dir, "waved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/waved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/waved: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running waved process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error // cmd.Wait's result, set before done closes
}

var servingOn = regexp.MustCompile(`serving on (127\.0\.0\.1:\d+)`)

// startDaemon execs bin on a loopback port the kernel picks, with
// the load generator's GOMAXPROCS, its log going to logPath. It
// returns once the daemon has logged its listen address.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append([]string{"-addr", "127.0.0.1:0", "-cache", strconv.Itoa(cacheCapacity)}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting waved: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(logPath)
		if err != nil {
			d.kill()
			return nil, err
		}
		if m := servingOn.FindSubmatch(b); m != nil {
			d.base = "http://" + string(m[1])
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("waved exited before listening: %v\n%s", d.err, b)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("waved did not report a listen address within 30s (log %s)", logPath)
		}
	}
}

// stop sends SIGTERM and waits up to 10 s; the daemon must exit with
// status 0 in that time.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("waved exited uncleanly after SIGTERM: %v", d.err)
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("waved still running 10s after SIGTERM")
	}
}

// kill ends the process unconditionally and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // the process may already have exited
	<-d.done
}

// memMB reads a memory field of /proc/<pid>/status (pid 0 = this
// process), such as VmRSS or VmHWM, in MiB.
func memMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// rssSampler reads a process's resident set every 100 ms until stopped.
// Its median is the memory figure the benchmark reports: the high-water
// mark of a garbage-collected process swings with where its collections
// happened to fall, the typical resident set much less.
type rssSampler struct {
	pid     int
	once    sync.Once
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

// halt stops the sampling and waits for it; it may be called again.
func (s *rssSampler) halt() {
	s.once.Do(func() { close(s.stopc) })
	<-s.done
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			mb, err := memMB(s.pid, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and reports the samples.
func (s *rssSampler) stop(res *result, who string) error {
	s.halt()
	if s.err != nil {
		return s.err
	}
	return reportRSS(res, s.pid, who, s.samples)
}

// reportRSS records the median of resident-set samples of pid as
// rss_mb, and its high-water mark as a diagnostic.
func reportRSS(res *result, pid int, who string, samples []float64) error {
	hwm, err := memMB(pid, "VmHWM")
	if err != nil {
		return err
	}
	res.set("rss_mb", median(samples), "MB", fmt.Sprintf("%s resident set, median of %d samples", who, len(samples)))
	res.diag("peak_rss_mb", hwm, "MB", "lower", who+" VmHWM")
	return nil
}

// bootTimed boots a daemon and times its set-up as a user sees it: from
// exec until /healthz answers 200 and one tune per system returned 200,
// which includes each system's lazy tuner training.
func bootTimed(ctx context.Context, bin string, args []string, logPath string, perSystem []*tuneKey) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, args, logPath)
	if err != nil {
		return nil, 0, err
	}
	c := &conn{client: newClient()}
	defer c.client.CloseIdleConnections()
	for {
		code, _, err := c.do(ctx, "GET", d.base+"/healthz", nil)
		if err == nil && code == 200 {
			break
		}
		if time.Since(t0) > 30*time.Second || ctx.Err() != nil {
			d.kill()
			return nil, 0, fmt.Errorf("/healthz not ready after 30s (last: %d %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
	for _, k := range perSystem {
		if _, err := c.post(ctx, d.base+"/v1/tune", k.body, 200); err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("set-up tune for %s: %w", k.req.System, err)
		}
	}
	return d, time.Since(t0), nil
}

// setupKeys returns the first key of each system, the tunes that end a
// daemon's timed set-up.
func setupKeys(keys []*tuneKey) []*tuneKey {
	var out []*tuneKey
	for _, s := range systemNames {
		for _, k := range keys {
			if k.req.System == s {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// bootDaemons boots e.setupReps daemons in turn, each timed from exec to
// its first served tune per system, stops all but the last (each must
// exit cleanly) and returns the last one with the median set-up time.
func bootDaemons(ctx context.Context, e *env, name string, args []string, perSystem []*tuneKey, res *result) (*daemon, float64, error) {
	if e.tunersDir != "" {
		args = append([]string{"-tuners", e.tunersDir}, args...)
	}
	var times []float64
	var d *daemon
	for i := 0; i < e.setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				res.problem("set-up daemon %d: %v", i, err)
			}
		}
		var took time.Duration
		var err error
		d, took, err = bootTimed(ctx, e.waved, args, filepath.Join(e.workdir, name+".log"), perSystem)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took.Seconds())
	}
	return d, median(times), nil
}

// fetchStats reads GET /v1/stats.
func fetchStats(ctx context.Context, c *conn, base string) (statsResponse, error) {
	var st statsResponse
	b, err := c.get(ctx, base+"/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}
