package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"octopus/internal/store"
)

// Client speaks the /api/replicate wire protocol to a leader.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a leader at base (e.g. "http://host:8080"). The
// optional http.Client must not set a global Timeout: status requests
// long-poll and snapshot downloads can be large — per-request contexts
// bound each call instead.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

func (c *Client) get(ctx context.Context, q url.Values, header http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+ReplicatePath+"?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	return c.hc.Do(req)
}

// errorBody folds a non-2xx response into an error.
func errorBody(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("repl: leader returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
}

// Status fetches the leader's replication handshake. With wait > 0 it
// long-polls: the leader answers as soon as its checkpoint version
// differs from after, or when wait runs out.
func (c *Client) Status(ctx context.Context, after uint64, wait time.Duration) (Status, error) {
	q := url.Values{"what": {"status"}}
	if wait > 0 {
		q.Set("after", strconv.FormatUint(after, 10))
		q.Set("wait_ms", strconv.FormatInt(wait.Milliseconds(), 10))
	}
	resp, err := c.get(ctx, q, nil)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, errorBody(resp)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, fmt.Errorf("repl: decode status: %w", err)
	}
	return st, nil
}

// FetchSnapshot downloads the leader's snapshot to dest atomically
// (temp + rename). A partial file left by an interrupted call is
// resumed with a Range request — unless the leader's snapshot version
// moved on, in which case the download restarts from zero. Returns the
// downloaded snapshot's version (read from the file itself, so a
// checkpoint racing the version header cannot mislabel it), the bytes
// transferred this call, and whether a partial file was resumed.
func (c *Client) FetchSnapshot(ctx context.Context, dest string) (version uint64, transferred int64, resumed bool, err error) {
	partial := dest + ".partial"
	verFile := partial + ".version"
	var off int64
	if fi, err := os.Stat(partial); err == nil && fi.Size() > 0 {
		if b, err := os.ReadFile(verFile); err == nil {
			if _, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); perr == nil {
				off = fi.Size()
			}
		}
	}
	for attempt := 0; ; attempt++ {
		q := url.Values{"what": {"snapshot"}}
		var hdr http.Header
		if off > 0 {
			hdr = http.Header{"Range": {fmt.Sprintf("bytes=%d-", off)}}
		}
		resp, err := c.get(ctx, q, hdr)
		if err != nil {
			return 0, transferred, off > 0, err
		}
		restartFromZero := func() bool {
			// Partial bytes belong to a superseded or mismatched snapshot:
			// drop them and retry once from offset zero.
			resp.Body.Close()
			os.Remove(partial)
			os.Remove(verFile)
			off = 0
			return attempt == 0
		}
		switch resp.StatusCode {
		case http.StatusOK:
			if off > 0 {
				// Leader ignored the Range request (full body follows a
				// closed connection): restart cleanly from zero.
				if restartFromZero() {
					continue
				}
				return 0, transferred, false, fmt.Errorf("repl: leader ignored Range resume twice")
			}
		case http.StatusPartialContent:
			if b, rerr := os.ReadFile(verFile); rerr == nil &&
				strings.TrimSpace(string(b)) != resp.Header.Get(HeaderSnapshotVersion) {
				if restartFromZero() {
					continue
				}
				return 0, transferred, false, fmt.Errorf("repl: snapshot version keeps changing under resume")
			}
		case http.StatusRequestedRangeNotSatisfiable:
			if restartFromZero() {
				continue
			}
			return 0, transferred, false, fmt.Errorf("repl: snapshot shrank under resume twice")
		default:
			err := errorBody(resp)
			resp.Body.Close()
			return 0, transferred, off > 0, err
		}
		if off == 0 {
			_ = os.WriteFile(verFile, []byte(resp.Header.Get(HeaderSnapshotVersion)), 0o644)
		}
		f, ferr := os.OpenFile(partial, os.O_CREATE|os.O_WRONLY, 0o644)
		if ferr != nil {
			resp.Body.Close()
			return 0, transferred, false, ferr
		}
		if ferr = f.Truncate(off); ferr == nil {
			_, ferr = f.Seek(off, io.SeekStart)
		}
		var n int64
		if ferr == nil {
			n, ferr = io.Copy(f, resp.Body)
		}
		transferred += n
		resp.Body.Close()
		if serr := f.Sync(); ferr == nil {
			ferr = serr
		}
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			// The partial file (and its version marker) stay behind so the
			// next call resumes instead of starting over.
			return 0, transferred, off > 0, fmt.Errorf("repl: snapshot download: %w", ferr)
		}
		version, ferr = store.PeekVersion(partial)
		if ferr != nil {
			os.Remove(partial)
			os.Remove(verFile)
			return 0, transferred, off > 0, fmt.Errorf("repl: downloaded snapshot invalid: %w", ferr)
		}
		if ferr = os.Rename(partial, dest); ferr != nil {
			return 0, transferred, off > 0, ferr
		}
		os.Remove(verFile)
		return version, transferred, off > 0, nil
	}
}
