package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one recorded layer call. Times are nanoseconds since the tracer
// started; Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory for one goroutine (the benchmark's main
// loop). It does not use the program's own spans, whose engine counters are
// process-wide. When off, begin and end cost one branch.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index
// (-1 when tracing is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the time its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// count returns how many spans were recorded.
func (t *tracer) count() int { return len(t.spans) }

// spanCost measures what one begin/end pair costs on this machine, so the
// traced run can report its own overhead without a second run.
func spanCost() time.Duration {
	t := newTracer(true)
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate"))
	}
	return time.Since(start) / n
}

// writeFile writes the spans as JSON into dir, named after the run.
func (t *tracer) writeFile(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// compareCounters writes this traced run's per-item engine counters into
// dir and, when an earlier traced run of the same workload and seed left
// its counters there, prints which counters repeated exactly over the
// items both runs measured. Items match by key: the same seed gives the
// same items, though a time-bounded run measures a different number.
func compareCounters(w io.Writer, dir, workload string, seed int64, items map[string]engineDelta) error {
	if len(items) == 0 {
		return nil
	}
	path := filepath.Join(dir, fmt.Sprintf("counters-%s-seed%d.json", workload, seed))
	cur := make(map[string]map[string]uint64, len(items))
	for key, d := range items {
		cur[key] = d.fields()
	}
	if raw, err := os.ReadFile(path); err == nil {
		var prev map[string]map[string]uint64
		if err := json.Unmarshal(raw, &prev); err == nil && len(prev) > 0 {
			var both []string
			for key := range cur {
				if _, ok := prev[key]; ok {
					both = append(both, key)
				}
			}
			n := len(both)
			var names []string
			for name := range (engineDelta{}).fields() {
				names = append(names, name)
			}
			sort.Strings(names)
			var same, differ []string
			for _, name := range names {
				var a, b uint64
				exact := true
				for _, key := range both {
					a, b = a+prev[key][name], b+cur[key][name]
					exact = exact && prev[key][name] == cur[key][name]
				}
				if exact {
					same = append(same, name)
				} else {
					differ = append(differ, fmt.Sprintf("%s (%d vs %d)", name, a, b))
				}
			}
			fmt.Fprintf(w, "counters over the %d items both traced runs measured: repeated exactly: %s; differed: %s\n",
				n, strings.Join(same, ", "), strings.Join(differ, ", "))
		}
	}
	b, err := json.Marshal(cur)
	if err != nil {
		return fmt.Errorf("writing counters: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing counters: %w", err)
	}
	return nil
}
