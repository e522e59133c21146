package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// fleetNodes is the number of pacd nodes behind the gateway. Each runs
// one simulation worker, so the fleet's workers match the two CPUs of the
// machine the benchmark was tuned on.
const fleetNodes = 2

// proc is one fleet process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed when Wait returns
	log  *os.File
}

// fleet is pacgw in front of fleetNodes pacd nodes, each with the durable
// store, the job journal and checkpoints on.
type fleet struct {
	gw     *proc
	nodes  []*proc
	client *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startProc(name, bin, dir string, port int, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The fleet dies with pacbench even if pacbench is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM (pacd drains its queue, flushes its store and
// journal) and waits for the exit, killing the process after grace.
func (p *proc) stop(grace time.Duration) {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(grace):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
}

// nodeArgs are the production flags of one pacd node. The -checkpoint-
// interval is the only deviation from the defaults: at the default 2M
// cycles no request of these workloads would ever write a checkpoint.
func nodeArgs(name, dir string, ckptEvery int64) []string {
	return []string{
		"-quick", "-concurrency", "1", "-parallel", "1", "-node", name,
		"-store", filepath.Join(dir, "store"),
		"-wal", filepath.Join(dir, "jobs.wal"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-checkpoint-interval", strconv.FormatInt(ckptEvery, 10),
	}
}

// startFleet boots the fleet in dir and waits until every node answers
// /readyz and the gateway sees every backend up.
func startFleet(ctx context.Context, bin, dir string, ckptEvery int64) (f *fleet, err error) {
	f = &fleet{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     time.Minute,
	}}}
	defer func() {
		if err != nil {
			f.stop()
			f = nil
		}
	}()
	var urls []string
	for i := 0; i < fleetNodes; i++ {
		name := fmt.Sprintf("node%d", i)
		ndir := filepath.Join(dir, name)
		if err := os.MkdirAll(ndir, 0o755); err != nil {
			return f, err
		}
		port, err := freePort()
		if err != nil {
			return f, err
		}
		p, err := startProc(name, filepath.Join(bin, "pacd"), dir, port, nodeArgs(name, ndir, ckptEvery)...)
		if err != nil {
			return f, err
		}
		f.nodes = append(f.nodes, p)
		urls = append(urls, p.url)
	}
	port, err := freePort()
	if err != nil {
		return f, err
	}
	f.gw, err = startProc("gateway", filepath.Join(bin, "pacgw"), dir, port,
		"-quick", "-backends", strings.Join(urls, ","))
	if err != nil {
		return f, err
	}
	for _, n := range f.nodes {
		if err := f.waitFor(ctx, n, "/readyz", nil); err != nil {
			return f, err
		}
	}
	allUp := func(body []byte) bool {
		var h struct {
			BackendsUp int `json:"backendsUp"`
		}
		return json.Unmarshal(body, &h) == nil && h.BackendsUp == fleetNodes
	}
	return f, f.waitFor(ctx, f.gw, "/healthz", allUp)
}

// waitFor polls path on p until it answers 200 (and ok accepts the body).
func (f *fleet) waitFor(ctx context.Context, p *proc, path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+path, nil)
		if err != nil {
			return err
		}
		if resp, err := f.client.Do(req); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot (see %s)", p.name, p.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", p.name)
		}
	}
}

// stop shuts the gateway down, then the nodes, and waits for every exit.
func (f *fleet) stop() {
	if f.gw != nil {
		f.gw.stop(10 * time.Second)
	}
	for _, n := range f.nodes {
		n.stop(30 * time.Second)
	}
	f.client.CloseIdleConnections()
}

func (f *fleet) procs() []*proc { return append([]*proc{f.gw}, f.nodes...) }

// cpuSeconds is the summed user+system CPU of every fleet process.
func (f *fleet) cpuSeconds() (float64, error) {
	sum := 0.0
	for _, p := range f.procs() {
		s, err := procCPUSeconds(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += s
	}
	return sum, nil
}

// peakRSSMB is the summed VmHWM of every fleet process.
func (f *fleet) peakRSSMB() float64 {
	sum := 0.0
	for _, p := range f.procs() {
		sum += procStatusMB(p.cmd.Process.Pid, "VmHWM")
	}
	return sum
}

// scrape reads a Prometheus text exposition into name → value, summing
// the series of each name across label sets (and keeping each labelled
// series under its full name too). Histogram buckets are skipped; their
// _sum and _count are kept.
func (f *fleet) scrape(ctx context.Context, p *proc) (map[string]float64, error) {
	resp, body, err := getURL(ctx, f.client, p.url+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", p.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", p.name, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series := line[:sp]
		name := series
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
		if series != name {
			out[series] += v
		}
	}
	return out, sc.Err()
}

// snapshot holds one scrape of every fleet process by process name.
type snapshot map[string]map[string]float64

func (f *fleet) snapshot(ctx context.Context) (snapshot, error) {
	s := snapshot{}
	for _, p := range f.procs() {
		m, err := f.scrape(ctx, p)
		if err != nil {
			return nil, err
		}
		s[p.name] = m
	}
	return s, nil
}

// nodeDelta sums a metric's growth across the nodes between two
// snapshots.
func (f *fleet) nodeDelta(before, after snapshot, name string) float64 {
	d := 0.0
	for _, n := range f.nodes {
		d += after[n.name][name] - before[n.name][name]
	}
	return d
}

// gwDelta is a gateway metric's growth between two snapshots.
func (f *fleet) gwDelta(before, after snapshot, name string) float64 {
	return after[f.gw.name][name] - before[f.gw.name][name]
}

// postJSON sends one request and reads the whole reply.
func postJSON(ctx context.Context, c *http.Client, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c, req)
}

func getURL(ctx context.Context, c *http.Client, url string) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	return do(c, req)
}

func do(c *http.Client, req *http.Request) (*http.Response, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// errBusy marks an op that stayed 429 through every retry.
var errBusy = errors.New("still 429 after every retry")
