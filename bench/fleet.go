package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	base string // http://host:port once bound
}

// fleet is seda-router in front of seda-serve replicas sharing one
// disk-cache directory: the deployment seda-router documents.
type fleet struct {
	router   *proc
	replicas []*proc
}

func (f *fleet) procs() []*proc { return append([]*proc{f.router}, f.replicas...) }

// startFleet boots a router over n replicas on a fresh cache under dir
// and waits until every process answers /readyz with 200. It returns
// the fleet and how long the boot took.
func startFleet(ctx context.Context, bin, dir string, n int) (*fleet, time.Duration, error) {
	cache := filepath.Join(dir, "cache")
	if err := os.RemoveAll(cache); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	f := &fleet{}
	fail := func(err error) (*fleet, time.Duration, error) {
		f.stop() //nolint:errcheck // already failing
		return nil, 0, err
	}
	var addrs []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("replica-%d", i)
		p, err := startProc(dir, name, filepath.Join(bin, "seda-serve"), replicaAddr(i),
			"-cache-dir", cache, "-jitter-seed", strconv.Itoa(i+1))
		if err != nil {
			return fail(err)
		}
		f.replicas = append(f.replicas, p)
	}
	for _, p := range f.replicas {
		if err := p.waitAddr(ctx, dir); err != nil {
			return fail(err)
		}
		addrs = append(addrs, strings.TrimPrefix(p.base, "http://"))
	}
	r, err := startProc(dir, "router", filepath.Join(bin, "seda-router"), "127.0.0.1:0",
		"-cache-dir", cache, "-replicas", strings.Join(addrs, ","))
	if err != nil {
		return fail(err)
	}
	f.router = r
	if err := r.waitAddr(ctx, dir); err != nil {
		return fail(err)
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	for _, p := range f.procs() {
		if err := waitReady(ctx, hc, p.base); err != nil {
			return fail(fmt.Errorf("%s: %w", p.name, err))
		}
	}
	hc.CloseIdleConnections()
	return f, time.Since(t0), nil
}

// replicaBasePort numbers the replicas' ports. The router sends each
// result to a replica chosen by hashing the replicas' addresses, so on
// the same ports every run splits the results between the replicas the
// same way; on random ports, which replica computes and serves what
// would change from run to run.
const replicaBasePort = 18431

// replicaAddr returns the fixed address of replica i, or a random port
// when that one is taken.
func replicaAddr(i int) string {
	addr := fmt.Sprintf("127.0.0.1:%d", replicaBasePort+i)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s is taken (%v); replica %d takes a random port, so results split between replicas unlike other runs\n", addr, err, i)
		return "127.0.0.1:0"
	}
	ln.Close()
	return addr
}

func startProc(dir, name, exe, addr string, args ...string) (*proc, error) {
	addrFile := filepath.Join(dir, name+".addr")
	os.Remove(addrFile) //nolint:errcheck // absent on a first run
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", addr, "-addr-file", addrFile}, args...)
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// A server must not outlive a benchmark that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &proc{name: name, cmd: cmd, log: log}, nil
}

// pollInterval spaces the checks for a booting process's address and
// readiness; boots take a few milliseconds, which setup_s measures.
const pollInterval = 250 * time.Microsecond

// waitAddr waits for the process to publish its bound address.
func (p *proc) waitAddr(ctx context.Context, dir string) error {
	file := filepath.Join(dir, p.name+".addr")
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(file); err == nil && len(bytes.TrimSpace(b)) > 0 {
			p.base = "http://" + string(bytes.TrimSpace(b))
			return nil
		}
		if !sleepUntil(ctx, time.Now().Add(pollInterval)) {
			return ctx.Err()
		}
	}
	return fmt.Errorf("%s did not publish its address (see %s.log)", p.name, p.name)
}

func waitReady(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !sleepUntil(ctx, time.Now().Add(pollInterval)) {
			return ctx.Err()
		}
	}
	return errors.New("not ready after 20s")
}

// stop sends SIGTERM to every process, waits for each to exit (killing
// any that outlast the grace period) and returns the sum of their peak
// resident set sizes in MB (2^20 bytes).
func (f *fleet) stop() (float64, error) {
	var errs []error
	var rssKB int64
	live := f.procs()
	for _, p := range live {
		if p != nil {
			p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is reaped below
		}
	}
	for _, p := range live {
		if p == nil {
			continue
		}
		done := make(chan error, 1)
		go func() { done <- p.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				errs = append(errs, fmt.Errorf("%s exited: %w", p.name, err))
			}
		case <-time.After(15 * time.Second):
			p.cmd.Process.Kill() //nolint:errcheck // racing its own exit is harmless
			<-done
			errs = append(errs, fmt.Errorf("%s ignored SIGTERM for 15s", p.name))
		}
		p.log.Close()
		if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rssKB += ru.Maxrss
		}
	}
	return float64(rssKB) / 1024, errors.Join(errs...)
}

// cpu returns the CPU time (user + system) the process has used so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 12th and 13th of them, in clock ticks of 1/100 s.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// cpuOf sums the CPU time of the processes.
func cpuOf(ps []*proc) (time.Duration, error) {
	var total time.Duration
	for _, p := range ps {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// cpuEvery samples the processes' summed CPU time at t0, t0+w, t0+2w,
// ... until the function it returns is called, which returns the
// samples.
func cpuEvery(ps []*proc, t0 time.Time, w time.Duration) func() ([]time.Duration, error) {
	done, finished := make(chan struct{}), make(chan struct{})
	var samples []time.Duration
	var err error
	go func() {
		defer close(finished)
		for k := 0; ; k++ {
			tm := time.NewTimer(time.Until(t0.Add(time.Duration(k) * w)))
			select {
			case <-done:
				tm.Stop()
				return
			case <-tm.C:
			}
			var c time.Duration
			if c, err = cpuOf(ps); err != nil {
				return
			}
			samples = append(samples, c)
		}
	}()
	return func() ([]time.Duration, error) {
		close(done)
		<-finished
		return samples, err
	}
}

// scrape reads a /metrics page into sample name (with labels) -> value.
// It reads only the few counters the benchmark uses, with no dependency
// on the program's own parser.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrapeAll sums the samples of several processes' /metrics pages.
func scrapeAll(ctx context.Context, ps []*proc) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, p := range ps {
		m, err := scrape(ctx, p.base)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", p.name, err)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}
