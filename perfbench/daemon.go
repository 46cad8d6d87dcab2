package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"roughsurface/internal/cluster"
	"roughsurface/internal/par"
)

// node is one running rrsd process.
type node struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exit   <-chan error // delivers Wait's result once the process is reaped
	exited bool
	err    error // Wait's result, valid once exited
}

// fleet is the set of rrsd processes one workload drives.
type fleet struct {
	nodes  []*node
	client *http.Client
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every mainstream Linux build.
const clockTicks = 100

// startFleet launches n rrsd processes on loopback and waits until each
// answers /healthz and, for n > 1, until every node sees the whole fleet
// alive. Each node gets gomaxprocs CPUs when gomaxprocs > 0.
func startFleet(bin, dir string, n, gomaxprocs int, args []string) (*fleet, error) {
	f := &fleet{client: &http.Client{Timeout: 30 * time.Second}}
	peers := filepath.Join(dir, "peers.json")
	if n > 1 {
		if err := writeFileAtomic(peers, []byte("[]")); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		nd := &node{name: fmt.Sprintf("n%d", i)}
		portFile := filepath.Join(dir, "port."+nd.name)
		_ = os.Remove(portFile)
		a := []string{"-addr", "127.0.0.1:0", "-portfile", portFile, "-q"}
		if n > 1 {
			a = append(a, "-node", nd.name, "-peers-file", peers, "-probe-interval", "50ms")
		}
		nd.cmd = exec.Command(bin, append(a, args...)...)
		nd.cmd.Stderr = os.Stderr
		nd.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if gomaxprocs > 0 {
			nd.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
		}
		if err := nd.cmd.Start(); err != nil {
			return nil, errors.Join(fmt.Errorf("start rrsd: %w", err), f.stop())
		}
		nd.exit = par.Background(nd.cmd.Wait)
		f.nodes = append(f.nodes, nd)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, nd := range f.nodes {
		portFile := filepath.Join(dir, "port."+nd.name)
		for {
			if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
				nd.url = "http://" + strings.TrimSpace(string(b))
				break
			}
			if err := f.waitStep(nd, deadline); err != nil {
				return nil, err
			}
		}
		for {
			if code, _, err := f.get(nd.url + "/healthz"); err == nil && code == http.StatusOK {
				break
			}
			if err := f.waitStep(nd, deadline); err != nil {
				return nil, err
			}
		}
	}
	if n > 1 {
		var members []cluster.Peer
		for _, nd := range f.nodes {
			members = append(members, cluster.Peer{Name: nd.name, URL: nd.url})
		}
		//lint:ignore detflow the peers file lists loopback URLs; the environment only reaches the child processes
		doc, err := json.Marshal(members)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		if err := writeFileAtomic(peers, doc); err != nil {
			return nil, errors.Join(err, f.stop())
		}
		for _, nd := range f.nodes {
			for !f.sees(nd, n) {
				if err := f.waitStep(nd, deadline); err != nil {
					return nil, err
				}
			}
		}
	}
	return f, nil
}

// waitStep sleeps briefly, failing (and tearing the fleet down) if nd
// died or the start-up deadline passed.
func (f *fleet) waitStep(nd *node, deadline time.Time) error {
	select {
	case nd.err = <-nd.exit:
		nd.exited = true
		return errors.Join(fmt.Errorf("rrsd %s exited during start-up: %v", nd.name, nd.err), f.stop())
	case <-time.After(2 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		return errors.Join(fmt.Errorf("rrsd %s not ready within the start-up deadline", nd.name), f.stop())
	}
	return nil
}

// sees reports whether nd's membership view holds n alive peers.
func (f *fleet) sees(nd *node, n int) bool {
	code, body, err := f.get(nd.url + "/v1/cluster")
	if err != nil || code != http.StatusOK {
		return false
	}
	var snap cluster.Snapshot
	if json.Unmarshal(body, &snap) != nil {
		return false
	}
	alive := 0
	for _, p := range snap.Peers {
		if p.Alive {
			alive++
		}
	}
	return alive == n
}

func (f *fleet) get(url string) (int, []byte, error) {
	resp, err := f.client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// postScene registers doc on nd and returns the scene ID it answers.
func (f *fleet) postScene(nd *node, doc []byte) (string, error) {
	resp, err := f.client.Post(nd.url+"/v1/scene", "application/json", strings.NewReader(string(doc)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("scene post on %s: %d %s", nd.name, resp.StatusCode, body)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		return "", fmt.Errorf("scene post on %s: %w", nd.name, err)
	}
	return reg.ID, nil
}

// stop sends SIGTERM to every node and waits for each to exit, killing
// any that outlive the drain deadline. A node that already exited during
// start-up has had its error reported.
func (f *fleet) stop() error {
	var errs []error
	for _, nd := range f.nodes {
		if !nd.exited {
			// A signal to a process that just exited fails; its exit is
			// collected below either way.
			_ = nd.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, nd := range f.nodes {
		if nd.exited {
			continue
		}
		select {
		case nd.err = <-nd.exit:
		case <-time.After(20 * time.Second):
			_ = nd.cmd.Process.Kill() // the exit below reports the kill
			nd.err = <-nd.exit
		}
		nd.exited = true
		if nd.err != nil {
			errs = append(errs, fmt.Errorf("rrsd %s: %w", nd.name, nd.err))
		}
	}
	return errors.Join(errs...)
}

// peakRSSMB sums the nodes' peak resident set sizes; valid after stop.
func (f *fleet) peakRSSMB() float64 {
	var kb int64
	for _, nd := range f.nodes {
		if ru, ok := nd.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			kb += ru.Maxrss
		}
	}
	return float64(kb) / 1024
}

// cpuTicks sums user+system CPU ticks over the fleet.
func (f *fleet) cpuTicks() (int64, error) {
	var total int64
	for _, nd := range f.nodes {
		t, err := procCPUTicks(nd.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// procCPUTicks reads utime+stime from /proc/<pid>/stat.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short record", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return ut + st, nil
}

// promSample is one scrape of /metrics: series (name plus labels) to value.
type promSample map[string]float64

func (f *fleet) scrape(nd *node) (promSample, error) {
	code, body, err := f.get(nd.url + "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics on %s: %d", nd.name, code)
	}
	return parseProm(string(body)), nil
}

// scrapeAll sums every node's series.
func (f *fleet) scrapeAll() (promSample, error) {
	sum := promSample{}
	for _, nd := range f.nodes {
		p, err := f.scrape(nd)
		if err != nil {
			return nil, err
		}
		for k, v := range p {
			sum[k] += v
		}
	}
	return sum, nil
}

func parseProm(text string) promSample {
	p := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// delta returns after − before for every series in after.
func delta(before, after promSample) promSample {
	d := promSample{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// count reads a counter series as the whole number it is.
func (p promSample) count(series string) int64 { return int64(math.Round(p[series])) }

// sumPrefix totals every series whose name starts with prefix.
func (p promSample) sumPrefix(prefix string) float64 {
	var s float64
	for k, v := range p {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// queueSampler polls rrsd_queue_depth on every node until stopped and
// keeps the maximum seen.
type queueSampler struct {
	stopCh chan struct{}
	done   <-chan error
	max    float64
}

func (f *fleet) sampleQueues() *queueSampler {
	q := &queueSampler{stopCh: make(chan struct{})}
	q.done = par.Background(func() error {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stopCh:
				return nil
			case <-tick.C:
			}
			for _, nd := range f.nodes {
				p, err := f.scrape(nd)
				if err != nil {
					return err
				}
				q.max = math.Max(q.max, p["rrsd_queue_depth"])
			}
		}
	})
	return q
}

// stop ends sampling and returns the maximum queue depth seen.
func (q *queueSampler) stop() (float64, error) {
	close(q.stopCh)
	err := <-q.done
	return q.max, err
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
