package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	hanccr "repro"
)

// clockTicks is Linux's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat (fixed at 100 on every architecture Go supports).
const clockTicks = 100

// daemon is one cmd/serve child process, read only from outside: HTTP,
// /proc/<pid>/stat and its rusage after exit.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	log   *os.File
	start time.Time
}

// freeAddr reserves a loopback port for the child to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// startDaemon execs bin with args, GOMAXPROCS set to gomaxprocs (""
// keeps the runtime default) and its log — the per-request access log
// included — appended to logPath, so no pipe has to be drained while
// the generator runs.
func startDaemon(bin string, args []string, gomaxprocs, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed mid-run must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GODEBUG=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if gomaxprocs != "" {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+gomaxprocs)
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf, start: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close() //hanccr:allow discarderr nothing was written; the Start error is what the caller sees
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close() //hanccr:allow discarderr read-only response body
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not ready after %s (last error %v); see %s", d.addr, timeout, err, d.log.Name())
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the exit and returns the child's peak
// resident set in KiB.
func (d *daemon) stop() (maxRSSKiB int64, err error) {
	defer d.log.Close() //hanccr:allow discarderr the child wrote the log; this process only opened it
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("daemon exit: %w; see %s", err, d.log.Name())
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for the daemon")
	}
	return ru.Maxrss, nil
}

// kill ends a daemon on an error path.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		_ = d.cmd.Process.Kill() // already exiting is fine
		_ = d.cmd.Wait()         // the run already failed; this only reaps the child
	}
	d.log.Close() //hanccr:allow discarderr the child wrote the log; this process only opened it
}

// cpuTicks is the child's user plus system CPU so far, in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	utime, stime, err := parseProcStat(data)
	return utime + stime, err
}

// parseProcStat reads utime and stime, fields 14 and 15 of
// /proc/<pid>/stat. The command name (field 2) is parenthesized and
// may hold spaces or parentheses, so fields are counted from the last
// ')'.
func parseProcStat(data []byte) (utime, stime int64, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, errors.New("proc stat: no command name")
	}
	// After ')' come fields 3 (state), 4, ...; utime is field 14.
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	if utime, err = strconv.ParseInt(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseInt(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// stats reads GET /v1/stats.
func (d *daemon) stats() (hanccr.StatsResponse, error) {
	var st hanccr.StatsResponse
	resp, err := http.Get("http://" + d.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close() //hanccr:allow discarderr read-only response body
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// delta is the counter movement between two /v1/stats snapshots.
func delta(before, after hanccr.StatsResponse) statsDelta {
	return statsDelta{
		Hits:          int64(after.Cache.Hits) - int64(before.Cache.Hits),
		Misses:        int64(after.Cache.Misses) - int64(before.Cache.Misses),
		StructureHits: int64(after.StructureCache.Hits) - int64(before.StructureCache.Hits),
		StoreHits:     int64(after.Store.Hits) - int64(before.Store.Hits),
		StoreRecords:  int64(after.Store.Records) - int64(before.Store.Records),
	}
}
