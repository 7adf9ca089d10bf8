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
	"repro/internal/target"
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
	quboJob := `{"qubo":{"n":3,"terms":[{"i":0,"j":0,"v":-1}]}}`
	// withPasses is a gate job compiling through spec, plus extra fields.
	withPasses := func(spec, extra string) string {
		return `{"cqasm":` + string(cqasm) + `,"shots":8,"passes":"` + spec + `"` + extra + `}`
	}
	calibrated, err := json.Marshal(target.Superconducting())
	if err != nil {
		t.Fatal(err)
	}
	// A device whose gate takes 1e10 cycles: schedulers keep per-cycle
	// state, so admission must refuse it rather than a worker run it.
	slow := target.Perfect(2)
	slow.Gates = map[string]target.GateSpec{"h": {DurationCycles: 1e10}, "cnot": {DurationCycles: 1}}
	slowTarget, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	hugeDuration := `{"cqasm":` + string(cqasm) + `,"shots":8,"target":` + string(slowTarget) + `}`
	noSchedule := withPasses("decompose,optimize", "")
	noAssemble := withPasses("decompose,optimize,map,lower-swaps,schedule", "")
	noAssembleOnTarget := withPasses("decompose,optimize,map,lower-swaps,schedule", `,"target":`+string(calibrated))
	// Programs the cQASM parser refuses, each with the words its 400
	// must carry.
	programOn := func(backend, text, extra string) string {
		b, _ := json.Marshal(text)
		return `{"cqasm":` + string(b) + `,"backend":"` + backend + `","shots":8` + extra + `}`
	}
	program := func(text string) string { return programOn("perfect", text, "") }
	unknownGate := program("version 1.0\nqubits 2\nfoo q[0]\nmeasure q[0]\n")
	outOfRange := program("version 1.0\nqubits 2\nh q[5]\nmeasure q[0]\n")
	garbage := program("this is not cQASM")
	// Programs no layer below the parser can run: a condition bit
	// outside the register, non-finite literals and coefficients, and a
	// program wider than the stack it routes to — the backend's own or a
	// target override.
	condBit := "version 1.0\nqubits 2\nmeasure q[0]\nc-x b[100], q[1]\nmeasure q[1]\n"
	condBitLive, condBitRealistic := program(condBit), programOn("superconducting", condBit, "")
	nanAngle := "version 1.0\nqubits 2\nrx q[0], nan\nmeasure q[0]\n"
	nanLive, nanRealistic := program(nanAngle), programOn("superconducting", nanAngle, "")
	infAngle := program("version 1.0\nqubits 2\nrx q[0], inf\nmeasure q[0]\n")
	nanCoeff := program("version 1.0\nqubits 2\nrx q[0], nan*$t\nmeasure q[0]\n")
	wideText := "version 1.0\nqubits 5\nh q[4]\nmeasure q[4]\n"
	wide := program(wideText)
	wideRealistic := programOn("superconducting", "version 1.0\nqubits 30\nh q[29]\nmeasure q[29]\n", "")
	perfect4, err := json.Marshal(target.Perfect(4))
	if err != nil {
		t.Fatal(err)
	}
	onPerfect4 := `,"target":` + string(perfect4)
	wideOverride := programOn("perfect", wideText, onPerfect4)
	fitsOverride := programOn("perfect", "version 1.0\nqubits 3\nh q[2]\nmeasure q[2]\n", onPerfect4)
	problems := map[string]string{
		unknownGate:      `unknown gate "foo"`,
		outOfRange:       "qubit 5 out of range",
		garbage:          `line 1: bad operand "is not cQASM"`,
		quboJob:          "QUBO payloads have no parameters to bind",
		hugeDuration:     `gate "h" duration 10000000000 exceeds`,
		condBitLive:      "condition bit 100 out of range",
		condBitRealistic: "condition bit 100 out of range",
		nanLive:          "non-finite parameter NaN",
		nanRealistic:     "non-finite parameter NaN",
		infAngle:         "non-finite parameter +Inf",
		nanCoeff:         "non-finite coefficient NaN of $t",
		wide:             `program needs 5 qubits, stack "perfect" has 2`,
		wideRealistic:    `program needs 30 qubits, stack "superconducting" has 17`,
		wideOverride:     "program needs 5 qubits, stack",
	}

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

	// realistic: a calibrated transmon lane, which executes eQASM.
	_, realistic, realisticSess := open(Config{}, NewStackBackend(core.NewSuperconducting(3)))

	type service struct {
		h    http.Handler
		sess string
	}
	svcs := map[string]service{
		"live": {live, liveSess}, "full": {full, fullSess}, "stopped": {stopped, stoppedSess},
		"realistic": {realistic, realisticSess},
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

		// Sessions pin gate programs: a QUBO body is refused.
		{"live", "sessions", quboJob, http.StatusBadRequest, false},

		{"live", "unknown-bind", `{"values":{}}`, http.StatusNotFound, false},

		// Pass specs that cannot yield an executable artefact on the
		// routed stack are refused at submit, not failed in the worker:
		// no schedule anywhere, no assemble after it on a realistic
		// stack — the backend's own or a calibrated target override.
		{"live", "submit", withPasses("map-noise", ""), http.StatusBadRequest, false},
		{"live", "submit", noSchedule, http.StatusBadRequest, false},
		{"live", "sessions", noSchedule, http.StatusBadRequest, false},
		{"live", "submit", noAssemble, http.StatusAccepted, false},
		{"live", "submit", noAssembleOnTarget, http.StatusBadRequest, false},
		{"realistic", "submit", noAssemble, http.StatusBadRequest, false},
		{"realistic", "sessions", noAssemble, http.StatusBadRequest, false},
		{"realistic", "submit", withPasses("decompose,map,schedule(policy=alap),assemble", ""), http.StatusAccepted, false},

		{"stopped", "submit", gate, http.StatusServiceUnavailable, false},
		{"stopped", "sessions", gate, http.StatusServiceUnavailable, false},
		{"stopped", "bind", `{"values":{}}`, http.StatusServiceUnavailable, false},

		// The cQASM is parsed at admission: a program the parser
		// refuses never becomes a job.
		{"live", "submit", unknownGate, http.StatusBadRequest, false},
		{"live", "sessions", unknownGate, http.StatusBadRequest, false},
		{"live", "submit", outOfRange, http.StatusBadRequest, false},
		{"live", "sessions", outOfRange, http.StatusBadRequest, false},
		{"live", "submit", garbage, http.StatusBadRequest, false},
		{"live", "sessions", garbage, http.StatusBadRequest, false},
		{"live", "submit", hugeDuration, http.StatusBadRequest, false},
		{"live", "sessions", hugeDuration, http.StatusBadRequest, false},

		// Unchecked at admission, each of these reaches a worker: a
		// crash, a spin, a wrong answer or a failed job instead of a 400.
		{"live", "submit", condBitLive, http.StatusBadRequest, false},
		{"live", "sessions", condBitLive, http.StatusBadRequest, false},
		{"realistic", "submit", condBitRealistic, http.StatusBadRequest, false},
		{"realistic", "sessions", condBitRealistic, http.StatusBadRequest, false},
		{"live", "submit", nanLive, http.StatusBadRequest, false},
		{"live", "sessions", nanLive, http.StatusBadRequest, false},
		{"realistic", "submit", nanRealistic, http.StatusBadRequest, false},
		{"live", "submit", infAngle, http.StatusBadRequest, false},
		{"live", "sessions", infAngle, http.StatusBadRequest, false},
		{"live", "submit", nanCoeff, http.StatusBadRequest, false},
		{"live", "sessions", nanCoeff, http.StatusBadRequest, false},
		{"live", "submit", wide, http.StatusBadRequest, false},
		{"live", "sessions", wide, http.StatusBadRequest, false},
		{"realistic", "submit", wideRealistic, http.StatusBadRequest, false},
		{"realistic", "sessions", wideRealistic, http.StatusBadRequest, false},
		{"live", "submit", wideOverride, http.StatusBadRequest, false},
		{"live", "sessions", wideOverride, http.StatusBadRequest, false},
		{"live", "submit", fitsOverride, http.StatusAccepted, false},
		{"live", "sessions", fitsOverride, http.StatusCreated, false},

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
		if problem, ok := problems[c.body]; ok {
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, problem) {
				t.Errorf("%s: error %q does not name the problem %q", name, e.Error, problem)
			}
		}
	}
}
