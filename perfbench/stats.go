package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarizes (0 when it
	// is a single reading). It is shown in the readable lines only: the
	// result line holds exactly a value and a unit per metric.
	Samples int `json:"-"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// Set records a single reading.
func (m Metrics) Set(name string, v float64, unit string) { m[name] = Metric{Value: v, Unit: unit} }

// SetN records a value summarizing n samples.
func (m Metrics) SetN(name string, v float64, unit string, n int) {
	m[name] = Metric{Value: v, Unit: unit, Samples: n}
}

// Only returns the named subset, in a fresh map; names missing from m
// are reported so a workload cannot silently drop a metric.
func (m Metrics) Only(names []string) (Metrics, []string) {
	out := Metrics{}
	var missing []string
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = v
	}
	return out, missing
}

// Print writes one "name value unit (n=samples)" line per metric.
func (m Metrics) Print(w *bufio.Writer) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		if v.Samples > 0 {
			fmt.Fprintf(w, "%-36s %14.6g %-6s n=%d\n", n, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method on a sorted copy; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedP99 splits xs (in arrival order) into consecutive windows of
// at least per values and returns the median of the windows' p99s.
func windowedP99(xs []float64, per int) float64 {
	n := max(len(xs)/per, 1)
	var p99s []float64
	for w := 0; w < n; w++ {
		p99s = append(p99s, quantile(xs[w*len(xs)/n:(w+1)*len(xs)/n], 0.99))
	}
	return median(p99s)
}

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTimes reads the machine's total and stolen CPU time (jiffies) from
// /proc/stat; stolen time is what the hypervisor gave to other guests.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user … steal; guest time is already inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// Span is one timed call at a layer boundary. Spans of one request
// share Request; Parent names the span of the layer above (0 = root).
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request string `json:"request"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil Recorder
// records nothing, so untraced code paths pay one nil check.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its ID.
func (r *Recorder) Start(layer, request string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Layer: layer, StartNs: int64(time.Since(r.epoch))})
	return id
}

// Add records a span timed by the caller and returns its ID.
func (r *Recorder) Add(layer, request string, parent int, start time.Time, d time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	s := int64(start.Sub(r.epoch))
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Layer: layer, StartNs: s, EndNs: s + int64(d)})
	return id
}

// End closes a span.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// Spans returns every recorded span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
