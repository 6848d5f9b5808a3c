package prof

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/logx"
	"repro/internal/obs"
)

// Capture names the files one trigger produced. The heap path exists by
// the time Capture is returned; the CPU path appears after the profile
// window closes (or never, if the runtime already had a CPU profile
// running — CPUPath is empty in that case).
type Capture struct {
	Reason   string `json:"reason"`
	TimeUTC  string `json:"time_utc"`
	CPUPath  string `json:"cpu,omitempty"`
	HeapPath string `json:"heap,omitempty"`
}

// Paths returns the capture as a {kind: path} map, the shape embedded in
// flight bundles and SLO burn reports. Nil when the capture is empty.
func (c Capture) Paths() map[string]string {
	if c.CPUPath == "" && c.HeapPath == "" {
		return nil
	}
	m := make(map[string]string, 2)
	if c.CPUPath != "" {
		m["cpu"] = c.CPUPath
	}
	if c.HeapPath != "" {
		m["heap"] = c.HeapPath
	}
	return m
}

// capturer owns the capture directory and the rate limiter. At most one
// capture is in flight at a time: the runtime supports a single CPU
// profile, and overlapping heap dumps from one process are noise anyway.
type capturer struct {
	dir         string
	cpuDuration time.Duration
	minInterval time.Duration
	maxCaptures int
	now         func() time.Time

	captures   *obs.Counter
	suppressed *obs.Counter
	errors     *obs.Counter
	log        *slog.Logger

	mu       sync.Mutex
	inFlight bool
	last     time.Time
	seq      int
	total    int
	wg       sync.WaitGroup
}

func newCapturer(opts Options) (*capturer, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: create capture dir: %w", err)
	}
	c := &capturer{
		dir:         opts.Dir,
		cpuDuration: opts.CPUDuration,
		minInterval: opts.MinInterval,
		maxCaptures: opts.MaxCaptures,
		now:         opts.Now,
		log:         opts.Logger,
	}
	if c.cpuDuration <= 0 {
		c.cpuDuration = 2 * time.Second
	}
	if c.minInterval == 0 {
		c.minInterval = 30 * time.Second
	}
	if c.maxCaptures == 0 {
		c.maxCaptures = 32
	}
	if c.now == nil {
		c.now = time.Now
	}
	if opts.Metrics != nil {
		c.captures = opts.Metrics.Counter(MetricCaptures)
		c.suppressed = opts.Metrics.Counter(MetricCapturesSuppressed)
		c.errors = opts.Metrics.Counter(MetricCaptureErrors)
	}
	return c, nil
}

func (c *capturer) trigger(reason string) (Capture, bool) {
	c.mu.Lock()
	now := c.now()
	switch {
	case c.inFlight,
		c.maxCaptures > 0 && c.total >= c.maxCaptures,
		c.minInterval > 0 && !c.last.IsZero() && now.Sub(c.last) < c.minInterval:
		c.mu.Unlock()
		if c.suppressed != nil {
			c.suppressed.Inc()
		}
		return Capture{}, false
	}
	c.inFlight = true
	c.last = now
	c.seq++
	c.total++
	seq := c.seq
	c.mu.Unlock()

	stamp := now.UTC().Format("20060102T150405.000")
	base := fmt.Sprintf("prof-%s-%04d-%s", stamp, seq, sanitizeReason(reason))
	res := Capture{
		Reason:   reason,
		TimeUTC:  now.UTC().Format(time.RFC3339Nano),
		CPUPath:  filepath.Join(c.dir, base+"-cpu.pprof"),
		HeapPath: filepath.Join(c.dir, base+"-heap.pprof"),
	}

	if err := c.writeHeap(res.HeapPath); err != nil {
		res.HeapPath = ""
		if c.errors != nil {
			c.errors.Inc()
		}
		logx.LogAttrs(c.log, slog.LevelWarn, "prof.heap.failed", slog.String("reason", reason), slog.String("err", err.Error()))
	}

	cpuTmp := res.CPUPath + ".tmp"
	f, err := os.Create(cpuTmp)
	if err == nil {
		err = pprof.StartCPUProfile(f)
		if err != nil {
			f.Close()
			os.Remove(cpuTmp)
		}
	}
	if err != nil {
		// Most likely a CPU profile is already running (e.g. a live
		// /debug/pprof/profile scrape). Keep the heap half of the capture.
		res.CPUPath = ""
		if c.errors != nil {
			c.errors.Inc()
		}
		logx.LogAttrs(c.log, slog.LevelWarn, "prof.cpu.skipped", slog.String("reason", reason), slog.String("err", err.Error()))
		c.finish(res, reason)
		return res, res.HeapPath != ""
	}

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		time.Sleep(c.cpuDuration)
		pprof.StopCPUProfile()
		f.Close()
		if err := os.Rename(cpuTmp, res.CPUPath); err != nil {
			os.Remove(cpuTmp)
			if c.errors != nil {
				c.errors.Inc()
			}
		}
		c.finish(res, reason)
	}()
	return res, true
}

// finish marks the capture complete and records it.
func (c *capturer) finish(res Capture, reason string) {
	c.mu.Lock()
	c.inFlight = false
	c.mu.Unlock()
	if c.captures != nil {
		c.captures.Inc()
	}
	logx.LogAttrs(c.log, slog.LevelInfo, "prof.capture",
		slog.String("reason", reason),
		slog.String("cpu", res.CPUPath),
		slog.String("heap", res.HeapPath))
}

// writeHeap snapshots the heap profile atomically (temp file + rename).
func (c *capturer) writeHeap(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Wait blocks until any in-flight CPU capture has sealed its file. Used
// by tests and graceful shutdown.
func (p *Profiler) Wait() {
	if p == nil || p.cap == nil {
		return
	}
	p.cap.wg.Wait()
}

// sanitizeReason maps a free-form trigger reason onto the filename-safe
// alphabet used by flight bundle names.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	b := []byte(reason)
	if len(b) > 32 {
		b = b[:32]
	}
	for i, ch := range b {
		switch {
		case ch >= 'a' && ch <= 'z', ch >= '0' && ch <= '9', ch == '-', ch == '_':
		case ch >= 'A' && ch <= 'Z':
			b[i] = ch - 'A' + 'a'
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
