package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Fixed loopback addresses. The coordinator's hash ring (and its heartbeat
// jitter) is keyed by each worker's host:port, so ephemeral ports would give
// every run a different shard placement. They sit below the Linux ephemeral
// range so outgoing connections never hold them; a daemon that finds its
// address taken exits with the bind error, and the run fails with it.
const (
	serverAddr = "127.0.0.1:27411"
)

var workerAddrs = []string{"127.0.0.1:27412", "127.0.0.1:27413"}

// clkTck is the kernel's USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clkTck = 100

// daemon is one process under test.
type daemon struct {
	name    string
	addr    string
	probe   string // readiness path: /readyz or /healthz
	cmd     *exec.Cmd
	logPath string
	// listening is closed when the daemon logs that its listener is open;
	// logDone when its stderr reaches EOF (the process exited).
	listening chan struct{}
	logDone   chan struct{}
}

// command is exec.Command for a process under test: the kernel kills it if
// the driver dies first, so an interrupted run leaves no daemon holding the
// fixed addresses.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// startDaemon launches bin with args. Its stderr (the daemon's JSON log) is
// copied to <logDir>/<name>.log and scanned for the "listening on" line.
func startDaemon(name, bin string, args []string, addr, probe, logDir string) (*daemon, error) {
	d := &daemon{
		name:      name,
		addr:      addr,
		probe:     probe,
		logPath:   filepath.Join(logDir, name+".log"),
		listening: make(chan struct{}),
		logDone:   make(chan struct{}),
	}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	d.cmd = command(bin, args...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		defer close(d.logDone)
		defer logFile.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		seen := false
		for sc.Scan() {
			line := sc.Bytes()
			logFile.Write(line)
			logFile.Write([]byte{'\n'})
			if !seen && bytes.Contains(line, []byte("listening on")) {
				seen = true
				close(d.listening)
			}
		}
		io.Copy(logFile, stderr)
	}()
	return d, nil
}

// awaitReady blocks until the daemon answers its readiness probe with 200.
// It waits on the daemon's own log line rather than polling on a timer, so
// the measured set-up time carries no sleep quantum; once the listener is
// open the probe is retried back to back (coordinator readiness can trail the
// listener by the first heartbeat).
func (d *daemon) awaitReady(client *http.Client, limit time.Duration) error {
	select {
	case <-d.listening:
	case <-d.logDone:
		return fmt.Errorf("%s exited before listening: %s", d.name, d.logTail())
	case <-time.After(limit):
		return fmt.Errorf("%s not listening after %v: %s", d.name, limit, d.logTail())
	}
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get("http://" + d.addr + d.probe)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s %s not ready after %v (last error %v)", d.name, d.probe, limit, err)
		}
	}
}

// stop sends SIGTERM (the daemons drain gracefully) and waits for the exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", d.name, err)
	}
	<-d.logDone
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("%s exit: %w: %s", d.name, err, d.logTail())
	}
	return nil
}

// kill is the error-path stop: no drain, but the process is still reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// procSample is one reading of a process's counters.
type procSample struct {
	cpu   time.Duration // user + system, all threads
	hwmKB int64         // VmHWM: peak resident set
}

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("parse /proc/%d/stat: %v %v", pid, err1, err2)
	}
	s.cpu = time.Duration(ut+st) * time.Second / clkTck
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb := strings.Fields(v)
			if len(kb) > 0 {
				s.hwmKB, err = strconv.ParseInt(kb[0], 10, 64)
			}
			return s, err
		}
	}
	return s, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fleet is the set of daemons under test for one set-up.
type fleet struct {
	daemons []*daemon
	client  *http.Client
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// spec of one daemon to launch.
type daemonSpec struct {
	name, bin string
	args      []string
	addr      string
	probe     string
}

// launchFleet starts every daemon at once and returns when all answer their
// readiness probes.
func launchFleet(specs []daemonSpec, logDir string) (*fleet, error) {
	f := &fleet{client: newClient(4)}
	for _, s := range specs {
		d, err := startDaemon(s.name, s.bin, s.args, s.addr, s.probe, logDir)
		if err != nil {
			f.kill()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
	}
	for _, d := range f.daemons {
		if err := d.awaitReady(f.client, 30*time.Second); err != nil {
			f.kill()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) stop() error {
	f.client.CloseIdleConnections()
	var first error
	for _, d := range f.daemons {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (f *fleet) kill() {
	f.client.CloseIdleConnections()
	for _, d := range f.daemons {
		d.kill()
	}
}

// sample sums the fleet's CPU and peak RSS.
func (f *fleet) sample() (procSample, error) {
	var total procSample
	for _, d := range f.daemons {
		s, err := readProc(d.cmd.Process.Pid)
		if err != nil {
			return total, fmt.Errorf("%s: %w", d.name, err)
		}
		total.cpu += s.cpu
		total.hwmKB += s.hwmKB
	}
	return total, nil
}

func (f *fleet) get(addr, path string) ([]byte, error) {
	resp, err := f.client.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return b, err
}
