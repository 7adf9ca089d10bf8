package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The span tree must preserve creation order, nest children correctly,
// and render durations that sum consistently with the root.
func TestSpanTreeOrdering(t *testing.T) {
	tr := NewTraceAt("job-1", "job", time.Now())
	root := tr.Root()
	q := root.StartChild("queue.wait")
	q.End()
	run := root.StartChild("run")
	run.SetAttr("backend", "perfect")
	compile := run.StartChild("compile")
	base := time.Now()
	compile.ChildAt("pass:decompose", base, 100*time.Nanosecond)
	compile.ChildAt("pass:schedule", base.Add(100*time.Nanosecond), 200*time.Nanosecond)
	compile.End()
	run.StartChild("execute").End()
	run.End()
	root.End()

	v := tr.View()
	if v.TraceID != "job-1" || v.Root.Name != "job" {
		t.Fatalf("view root = %+v", v)
	}
	var names []string
	for _, c := range v.Root.Children {
		names = append(names, c.Name)
	}
	if fmt.Sprint(names) != "[queue.wait run]" {
		t.Errorf("root children = %v", names)
	}
	runView := v.Root.Children[1]
	if runView.Attrs["backend"] != "perfect" {
		t.Errorf("run attrs = %v", runView.Attrs)
	}
	var runChildren []string
	for _, c := range runView.Children {
		runChildren = append(runChildren, c.Name)
	}
	if fmt.Sprint(runChildren) != "[compile execute]" {
		t.Errorf("run children = %v", runChildren)
	}
	passes := runView.Children[0].Children
	if len(passes) != 2 || passes[0].Name != "pass:decompose" || passes[1].Name != "pass:schedule" {
		t.Errorf("synthesized pass spans = %+v", passes)
	}
	if passes[0].DurationNs != 100 || passes[1].DurationNs != 200 {
		t.Errorf("synthesized durations = %d, %d", passes[0].DurationNs, passes[1].DurationNs)
	}
	// Children fit inside the root's duration.
	var childSum int64
	for _, c := range v.Root.Children {
		childSum += c.DurationNs
	}
	if v.Root.DurationNs < childSum {
		t.Errorf("root duration %dns shorter than the sum of its children %dns", v.Root.DurationNs, childSum)
	}
	// The view marshals to JSON.
	if _, err := json.Marshal(v); err != nil {
		t.Fatal(err)
	}
}

// An open span renders as in-flight; EndAt pins the closing edge and a
// second End is a no-op.
func TestSpanLifecycle(t *testing.T) {
	tr := NewTraceAt("job-2", "job", time.Now())
	open := tr.Root().StartChild("open")
	v := tr.View()
	if !v.Root.Children[0].InFlight || v.Root.Children[0].DurationNs != 0 {
		t.Errorf("open span view = %+v", v.Root.Children[0])
	}
	at := open.start.Add(123 * time.Nanosecond)
	open.EndAt(at)
	open.EndAt(at.Add(time.Hour)) // no-op: already ended
	if got := tr.View().Root.Children[0].DurationNs; got != 123 {
		t.Errorf("duration = %dns, want 123", got)
	}
	// Overwriting an attribute keeps one entry.
	open.SetAttr("k", "v1")
	open.SetAttr("k", "v2")
	if got := tr.View().Root.Children[0].Attrs; len(got) != 1 || got["k"] != "v2" {
		t.Errorf("attrs = %v", got)
	}
}

// Nil traces and spans must swallow every call: instrumentation sites
// run with tracing disabled at zero cost and zero branches.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil || tr.View() != nil {
		t.Error("nil trace leaked state")
	}
	sp := tr.Root().StartChild("x")
	if sp != nil {
		t.Error("nil span spawned a child")
	}
	sp.SetAttr("k", "v")
	sp.ChildAt("y", time.Now(), time.Second)
	sp.End()
	sp.EndAt(time.Now())

	var tc *Tracer
	if got := tc.Start("id", "job"); got != nil {
		t.Error("nil tracer started a trace")
	}
	if _, ok := tc.Get("id"); ok || tc.Len() != 0 {
		t.Error("nil tracer found a trace")
	}
}

// The tracer ring must bound retention, evicting oldest-first, and
// support concurrent Start/Get (run under -race).
func TestTracerRing(t *testing.T) {
	tc := NewTracer(3)
	for i := 1; i <= 5; i++ {
		tc.Start(fmt.Sprintf("job-%d", i), "job")
	}
	if tc.Len() != 3 {
		t.Fatalf("ring len = %d, want 3", tc.Len())
	}
	for _, gone := range []string{"job-1", "job-2"} {
		if _, ok := tc.Get(gone); ok {
			t.Errorf("%s survived eviction", gone)
		}
	}
	for _, kept := range []string{"job-3", "job-4", "job-5"} {
		if _, ok := tc.Get(kept); !ok {
			t.Errorf("%s evicted too early", kept)
		}
	}
	// Re-registering an ID replaces without growing the ring.
	tc.Start("job-5", "job")
	if tc.Len() != 3 {
		t.Errorf("ring len after re-register = %d, want 3", tc.Len())
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				tr := tc.Start(id, "job")
				tr.Root().StartChild("phase").End()
				tc.Get(id)
			}
		}(w)
	}
	wg.Wait()
	if tc.Len() != 3 {
		t.Errorf("ring len after concurrent churn = %d, want 3", tc.Len())
	}
}
