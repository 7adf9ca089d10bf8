package qserv

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// gatedStack is a session-capable gate backend whose ordinary jobs run
// only once release is closed — for saturating a real stack's lane.
type gatedStack struct {
	*StackBackend
	release chan struct{}
}

func (b *gatedStack) Run(r *Request, seed int64, env *CompileEnv) (*Result, bool, error) {
	<-b.release
	return b.StackBackend.Run(r, seed, env)
}

// TestAdmissionStatusCodes pins the HTTP status of every admission
// outcome on the three admitting routes — POST /submit, POST /sessions
// and POST /sessions/{id}/bind — so the admission path can change
// shape without changing what clients see. Cells with no meaning for a
// route (a submit names no session) are left out; binds carry no
// backend field, so a stray one is ignored.
func TestAdmissionStatusCodes(t *testing.T) {
	cqasm, _ := json.Marshal(bellCQASM)
	gate := `{"cqasm":` + string(cqasm) + `,"backend":"perfect","shots":8}`
	unknownBackend := `{"cqasm":` + string(cqasm) + `,"backend":"nope"}`

	// open starts a service over one perfect-stack lane and pins a
	// concrete-program session on it.
	open := func(cfg Config, b Backend) (*Service, http.Handler, string) {
		s := New(cfg)
		s.AddBackend(b, 1)
		s.Start()
		t.Cleanup(s.Stop)
		sess, err := s.OpenSession(Request{CQASM: bellCQASM, Shots: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s, s.Handler(), sess.ID
	}
	_, live, liveSess := open(Config{}, NewStackBackend(core.NewPerfect(2, 3)))

	// full: one job running (held by the gate), one queued in a
	// one-slot lane — the next admission finds the queue full.
	gs := &gatedStack{StackBackend: NewStackBackend(core.NewPerfect(2, 3)), release: make(chan struct{})}
	fullSvc, full, fullSess := open(Config{QueueSize: 1}, gs)
	t.Cleanup(func() { close(gs.release) })
	running, err := fullSvc.Submit(Request{CQASM: bellCQASM, Shots: 8})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); running.Status() != StatusRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gated job never started")
		}
	}
	if _, err := fullSvc.Submit(Request{CQASM: bellCQASM, Shots: 8}); err != nil {
		t.Fatal(err)
	}

	stoppedSvc, stopped, stoppedSess := open(Config{}, NewStackBackend(core.NewPerfect(2, 3)))
	stoppedSvc.Stop()

	type service struct {
		h    http.Handler
		sess string
	}
	svcs := map[string]service{
		"live": {live, liveSess}, "full": {full, fullSess}, "stopped": {stopped, stoppedSess},
	}
	cases := []struct {
		svc, route, body string
		code             int
		retryAfter       bool
	}{
		{"live", "submit", `{`, http.StatusBadRequest, false},
		{"live", "sessions", `{`, http.StatusBadRequest, false},
		{"live", "bind", `{`, http.StatusBadRequest, false},

		{"live", "submit", `{}`, http.StatusBadRequest, false},
		{"live", "sessions", `{}`, http.StatusBadRequest, false},
		{"live", "bind", `{"values":{"theta":1}}`, http.StatusBadRequest, false},

		{"live", "submit", unknownBackend, http.StatusBadRequest, false},
		{"live", "sessions", unknownBackend, http.StatusBadRequest, false},
		{"live", "bind", `{"backend":"nope","values":{}}`, http.StatusAccepted, false},

		{"live", "unknown-bind", `{"values":{}}`, http.StatusNotFound, false},

		{"stopped", "submit", gate, http.StatusServiceUnavailable, false},
		{"stopped", "sessions", gate, http.StatusServiceUnavailable, false},
		{"stopped", "bind", `{"values":{}}`, http.StatusServiceUnavailable, false},

		// Opening a session compiles on the request goroutine and never
		// enters a queue, so a full lane does not refuse it.
		{"full", "submit", gate, http.StatusServiceUnavailable, true},
		{"full", "sessions", gate, http.StatusCreated, false},
		{"full", "bind", `{"values":{}}`, http.StatusServiceUnavailable, true},
	}
	for _, c := range cases {
		sv := svcs[c.svc]
		path := map[string]string{
			"submit":       "/submit",
			"sessions":     "/sessions",
			"bind":         "/sessions/" + sv.sess + "/bind",
			"unknown-bind": "/sessions/sess-404/bind",
		}[c.route]
		rec := httptest.NewRecorder()
		sv.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(c.body))))
		name := c.svc + " " + c.route + " " + c.body
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, c.code, strings.TrimSpace(rec.Body.String()))
		}
		if got := rec.Header().Get("Retry-After") == "1"; got != c.retryAfter {
			t.Errorf("%s: Retry-After %q, want set=%v", name, rec.Header().Get("Retry-After"), c.retryAfter)
		}
	}
}
