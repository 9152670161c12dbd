package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// phase is the failure accounting of one stretch of load: every
// request attempted is either ok or failed, and only ok requests have a
// latency. A refused (429/503) or timed-out request is a failure, and
// so is every request a missed deadline left unsent.
type phase struct {
	Name      string `json:"phase"`
	Attempted int    `json:"attempted"`
	OK        int    `json:"ok"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`

	wall    time.Duration
	lat     [numKinds][]time.Duration // ok reads, per scenario, sorted
	sampled map[int][]byte            // bodies of every sampleEvery-th request
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}
}

// get issues one read and returns its body; anything but a 200 with a
// non-empty body is an error.
func get(hc *http.Client, url string) ([]byte, http.Header, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
	}
	if len(bytes.TrimSpace(body)) <= 2 { // "", "{}", "[]"
		return nil, nil, fmt.Errorf("empty result %q", body)
	}
	return body, resp.Header, nil
}

// count books one attempt of the phase: ok when err is nil, else failed,
// remembering the first failure (what names the request).
func (p *phase) count(what string, err error) {
	p.Attempted++
	if err == nil {
		p.OK++
		return
	}
	p.Failed++
	if p.FirstErr == "" {
		p.FirstErr = what + ": " + err.Error()
	}
}

// closedLoop executes a fixed request list through a shared cursor
// with the given number of clients, each sending its next request only
// after the previous one completed. It stops early when stop closes or
// the deadline passes; requests a passed deadline left unsent count as
// failed (a late run is a failed run, not a slow one). Every
// sampleEvery-th response body is kept for the correctness checks
// (0 keeps none); check, when non-nil, vets every response header.
func closedLoop(name, base string, reqs []request, clients int, deadline time.Duration,
	stop <-chan struct{}, sampleEvery int, check func(http.Header) error) *phase {

	// One slot per request, written by the one client that drew it.
	type outcome struct {
		took time.Duration // 0: never sent
		err  error
		body []byte
	}
	outcomes := make([]outcome, len(reqs))
	hc := newClient(clients)
	defer hc.CloseIdleConnections()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !closed(stop) && time.Since(start) < deadline {
				i := int(cursor.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				o := &outcomes[i]
				t0 := time.Now()
				body, hdr, err := get(hc, base+reqs[i].path)
				o.took = time.Since(t0)
				if err == nil && check != nil {
					err = check(hdr)
				}
				if o.err = err; err == nil && sampleEvery > 0 && i%sampleEvery == 0 {
					o.body = body
				}
			}
		}()
	}
	wg.Wait()
	p := &phase{Name: name, wall: time.Since(start), sampled: map[int][]byte{}}
	for i, o := range outcomes {
		if o.took == 0 {
			continue
		}
		p.count(reqs[i].path, o.err)
		if o.err != nil {
			continue
		}
		p.lat[reqs[i].kind] = append(p.lat[reqs[i].kind], o.took)
		if o.body != nil {
			p.sampled[i] = o.body
		}
	}
	for k := range p.lat {
		sortDurations(p.lat[k])
	}
	// When the caller ended the phase, unsent requests were never due.
	if unsent := len(reqs) - p.Attempted; unsent > 0 && !closed(stop) {
		p.Attempted += unsent
		p.Failed += unsent
		if p.FirstErr == "" {
			p.FirstErr = fmt.Sprintf("deadline %s passed with %d requests unsent", deadline, unsent)
		}
	}
	return p
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// schedule is an open-loop send plan: send i is due at start +
// i×interval whether or not earlier sends have completed, and every
// timing is taken from the due time, so a stall shows up as latency on
// the sends queued behind it instead of as a quieter generator.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// wait sleeps until send i is due and reports how late the generator
// ran (0 when it woke on time).
func (s schedule) wait(i int) (lag time.Duration) {
	due := s.due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if lag = time.Since(due); lag < 0 {
		lag = 0
	}
	return lag
}
