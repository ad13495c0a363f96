package main

// Starting, probing and stopping vsmartjoind processes.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// Daemon is one running vsmartjoind.
type Daemon struct {
	Addr string
	cmd  *exec.Cmd
	done chan error
	log  *bytes.Buffer
}

// StartDaemon launches vsmartjoind on a free loopback port and returns
// once it reports its listen address. Readiness is the caller's check.
func StartDaemon(bin string, args ...string) (*Daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vsmartjoind: %w", err)
	}
	d := &Daemon{cmd: cmd, done: make(chan error, 1), log: new(bytes.Buffer)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.log.WriteString(line + "\n")
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on http://"):]):
				default:
				}
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.Addr = <-addrc:
		return d, nil
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("vsmartjoind exited before listening: %v\n%s", err, d.log.String())
	case <-time.After(120 * time.Second):
		d.Stop()
		return nil, errors.New("vsmartjoind did not report a listen address within 120s")
	}
}

// childAttr makes the kernel kill a child if the benchmark dies first,
// so no daemon outlives an interrupted run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// Pid is the daemon's process ID.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// Stop sends SIGTERM, waits for a clean drain, and kills after a grace
// period. It always waits for the process to exit.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// StopAll stops daemons in parallel and waits for every one.
func StopAll(ds []*Daemon) {
	done := make(chan struct{}, len(ds))
	for _, d := range ds {
		go func(d *Daemon) { d.Stop(); done <- struct{}{} }(d)
	}
	for range ds {
		<-done
	}
}

// newClient returns an HTTP client that holds at most one connection,
// so a load-generator connection is exactly one TCP stream.
func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(c *http.Client, addr string, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		resp, err := c.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v (last error %v)", addr, within, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON fetches a JSON document into v.
func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// post sends a JSON body and returns the status and response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// writeTSV writes entities as the daemon's -load trace format.
func writeTSV(path string, es []Entity) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	for _, e := range es {
		for _, ck := range sortedKeys(e.Counts) {
			fmt.Fprintf(w, "%s\t%s\t%d\n", e.Name, ck, e.Counts[ck])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
