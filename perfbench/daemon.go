package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one started agingd or agingmon process.
type proc struct {
	cmd     *exec.Cmd
	started time.Time
	stdin   io.WriteCloser // agingmon only

	// lines receives the process's stdout lines with their arrival times.
	lines chan stampedLine
	out   strings.Builder // everything printed, for error reports
	outMu sync.Mutex
	done  chan struct{} // closed when stdout reaches EOF
}

type stampedLine struct {
	at   time.Time
	text string
}

// startProc execs bin with args, capturing stdout line by line. stderr is
// folded into the same capture.
func startProc(bin string, args []string, withStdin bool) (*proc, error) {
	p := &proc{
		cmd:   exec.Command(bin, args...),
		lines: make(chan stampedLine, 64), // the daemons print a handful of lines before serving
		done:  make(chan struct{}),
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.cmd.Stderr = p.cmd.Stdout
	// A daemon must not outlive a harness that dies without reaching
	// its kill path.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if withStdin {
		if p.stdin, err = p.cmd.StdinPipe(); err != nil {
			return nil, err
		}
	}
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := stampedLine{at: time.Now(), text: sc.Text()}
			p.outMu.Lock()
			p.out.WriteString(line.text + "\n")
			p.outMu.Unlock()
			select {
			case p.lines <- line:
			default: // nobody is waiting for more lines
			}
		}
	}()
	return p, nil
}

// output returns what the process printed so far.
func (p *proc) output() string {
	p.outMu.Lock()
	defer p.outMu.Unlock()
	return p.out.String()
}

// waitLine waits for a stdout line starting with prefix and returns the
// rest of it with its arrival time.
func (p *proc) waitLine(prefix string, timeout time.Duration) (string, time.Time, error) {
	deadline := time.After(timeout)
	for {
		select {
		case l := <-p.lines:
			if rest, ok := strings.CutPrefix(l.text, prefix); ok {
				return rest, l.at, nil
			}
		case <-p.done:
			return "", time.Time{}, fmt.Errorf("%s exited before printing %q:\n%s", p.cmd.Path, prefix, p.output())
		case <-deadline:
			return "", time.Time{}, fmt.Errorf("%s did not print %q within %v:\n%s", p.cmd.Path, prefix, timeout, p.output())
		}
	}
}

// interrupt sends SIGINT and waits for the process to exit, returning
// the time from the signal to exit. The waiter is parked in wait before
// the signal goes out and stamps the exit itself, so no goroutine hand-off
// lands inside the measured interval.
func (p *proc) interrupt(timeout time.Duration) (time.Duration, error) {
	type exit struct {
		at  time.Time
		err error
	}
	exitc := make(chan exit, 1)
	go func() {
		err := p.cmd.Wait()
		exitc <- exit{time.Now(), err}
	}()
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		_ = p.cmd.Process.Kill()
		<-exitc
		return 0, fmt.Errorf("signal: %w", err)
	}
	select {
	case x := <-exitc:
		d, err := x.at.Sub(t0), x.err
		<-p.done
		if err != nil {
			return d, fmt.Errorf("%s exited with %v:\n%s", p.cmd.Path, err, p.output())
		}
		return d, nil
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-exitc
		return 0, fmt.Errorf("%s did not exit within %v of SIGINT", p.cmd.Path, timeout)
	}
}

// kill stops the process if it is still running and reaps it; it is the
// cleanup path for lifecycles that fail midway.
func (p *proc) kill() {
	if p.cmd.ProcessState != nil {
		return
	}
	if p.stdin != nil {
		p.stdin.Close()
	}
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// procStat is the kernel's accounting of one process.
type procStat struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

func readProcStat(pid int) (procStat, error) {
	var st procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis. utime and stime are fields 14 and 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return st, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return st, err
	}
	st.cpu = time.Duration(ut+stime) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v := strings.TrimSuffix(strings.TrimSpace(rest), " kB")
			if st.hwmKB, err = strconv.ParseInt(strings.TrimSpace(v), 10, 64); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// scraper reads Prometheus text from one /metrics URL.
type scraper struct {
	url    string
	client *http.Client
	buf    bytes.Buffer
}

func newScraper(url string) *scraper {
	return &scraper{url: url, client: &http.Client{Timeout: 10 * time.Second}}
}

// scrape fetches the exposition and calls fn for each sample line with
// its metric name, label text (inside the braces) and value.
func (s *scraper) scrape(ctx context.Context, fn func(name, labels string, v float64)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	s.buf.Reset()
	if _, err := s.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", s.url, resp.Status)
	}
	parseExposition(s.buf.Bytes(), fn)
	return nil
}

// parseExposition walks Prometheus text-format sample lines.
func parseExposition(body []byte, fn func(name, labels string, v float64)) {
	for len(body) > 0 {
		nl := 0
		for nl < len(body) && body[nl] != '\n' {
			nl++
		}
		line := string(body[:nl])
		if nl < len(body) {
			body = body[nl+1:]
		} else {
			body = nil
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], strings.TrimSuffix(name[i+1:], "}")
		}
		fn(name, labels, v)
	}
}

// labelValue extracts one label's value from label text.
func labelValue(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
