package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// client speaks qservd's HTTP API over one keep-alive connection pool,
// with an idle connection kept for each closed-loop client.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: maxClients},
			Timeout:   time.Minute,
		},
	}
}

// call sends one request and returns the response body, failing unless
// the status is want.
func (c *client) call(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) callJSON(method, path string, body []byte, want int, out any) error {
	data, err := c.call(method, path, body, want)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// sample is one finished request as the client saw it.
type sample struct {
	job string
	// submit is the POST round trip: HTTP decode, admission and enqueue.
	submit time.Duration
	// total runs from sending the POST to receiving the finished job.
	total time.Duration
	end   time.Time
}

// errWrong marks a job that finished with counts that miss its check.
var errWrong = errors.New("wrong result")

// maxPolls bounds the long-polls one job may take, so a stuck job ends
// the run instead of hanging it.
const maxPolls = 6

// run submits one request and long-polls its job until it finishes.
func (c *client) run(r request) (sample, error) {
	start := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	if err := c.callJSON("POST", r.path, r.body, http.StatusAccepted, &sub); err != nil {
		return sample{}, err
	}
	s := sample{job: sub.ID, submit: time.Since(start)}
	var view struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Result *struct {
			Counts map[string]int `json:"counts"`
		} `json:"result"`
	}
	for polls := 0; view.Status != "done" && view.Status != "failed"; polls++ {
		if polls == maxPolls {
			return s, fmt.Errorf("job %s still %s after %d polls", sub.ID, view.Status, maxPolls)
		}
		if err := c.callJSON("GET", "/jobs/"+sub.ID+"?wait=10s", nil, http.StatusOK, &view); err != nil {
			return s, err
		}
	}
	s.end = time.Now()
	s.total = s.end.Sub(start)
	switch {
	case view.Status == "failed":
		return s, fmt.Errorf("job %s failed: %s", sub.ID, view.Error)
	case view.Result == nil:
		return s, fmt.Errorf("job %s: %w: no result", sub.ID, errWrong)
	}
	if err := r.check.verify(view.Result.Counts); err != nil {
		return s, fmt.Errorf("job %s: %w: %v", sub.ID, errWrong, err)
	}
	return s, nil
}

// outcome aggregates one closed-loop phase.
type outcome struct {
	samples   []sample
	attempted int
	failed    int
	wrong     int
	start     time.Time
	window    time.Duration
	errs      []error
}

// load runs the workload's closed loop for d: each of its clients sends
// its next request a think time after the previous one finishes. stream
// selects the clients' request streams, so warm-up and measurement draw
// different requests from the same seed.
func load(c *client, wl *workload, seed int64, stream int, d time.Duration) outcome {
	start := time.Now()
	deadline := start.Add(d)
	total := outcome{start: start, window: d}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < wl.clients; i++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s, err := c.run(wl.next(rng))
				mu.Lock()
				total.attempted++
				switch {
				case errors.Is(err, errWrong):
					total.wrong++
				case err != nil:
					total.failed++
				default:
					total.samples = append(total.samples, s)
				}
				if err != nil && len(total.errs) < 3 {
					total.errs = append(total.errs, err)
				}
				mu.Unlock()
				time.Sleep(wl.think)
			}
		}(rand.New(rand.NewSource(seed*1_000_003 + int64(stream*maxClients+i))))
	}
	wg.Wait()
	return total
}
