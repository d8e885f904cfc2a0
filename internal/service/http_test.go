package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp, m
}

// The daemon API end to end: submit, poll to completion, stats, drain,
// rejection after drain.
func TestHTTPSubmitPollDrain(t *testing.T) {
	s := New(Config{Executors: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/jobs", JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 9})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	id := int(body["id"].(float64))

	var job map[string]any
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st := job["status"]; st == string(StatusDone) || st == string(StatusFailed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", job)
		}
		time.Sleep(time.Millisecond)
	}
	if job["status"] != string(StatusDone) {
		t.Fatalf("job failed: %+v", job)
	}
	res := job["result"].(map[string]any)
	if res["correct"] != true {
		t.Fatalf("attack not correct: %+v", res)
	}

	r, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if stats.Completed != 1 || stats.Submitted != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	if resp, _ := postJSON(t, srv.URL+"/drain", nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	// Drain is async; wait for the scheduler to refuse.
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJSON(t, srv.URL+"/jobs", JobSpec{Kind: KindKernelBase, Seed: 1})
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions still accepted after drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// parseWait clamps every wait into [0, MaxWaitPoll] — plain seconds too
// large for time.Duration included — and rejects NaN and junk.
func TestParseWait(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    time.Duration
		wantErr bool
	}{
		{in: "5", want: 5 * time.Second},
		{in: "1e9", want: MaxWaitPoll},
		{in: "1e10", want: MaxWaitPoll},
		{in: "Inf", want: MaxWaitPoll},
		{in: "-Inf", want: 0},
		{in: "NaN", wantErr: true},
		{in: "-3", want: 0},
		{in: "500ms", want: 500 * time.Millisecond},
		{in: "bogus", wantErr: true},
	} {
		got, err := parseWait(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("parseWait(%q) = %v, %v; want %v, error %v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
}

// Bad requests map to 400/404.
func TestHTTPBadRequests(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	if resp, _ := postJSON(t, srv.URL+"/jobs", map[string]any{"kind": "frobnicate"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", resp.StatusCode)
	}
	r, err := http.Get(srv.URL + "/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d", r.StatusCode)
	}
}

// oversizeBody is a valid spec behind more whitespace than a POST /jobs
// body may hold: the decoder must read past the bound to reach it.
func oversizeBody() []byte {
	return []byte(strings.Repeat(" ", maxJobSpecBytes) + `{"kind":"kernelbase","seed":1}`)
}

// A body past maxJobSpecBytes is refused with 413 and never submitted.
func TestHTTPBodyTooLarge(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(oversizeBody()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("oversize body reached the scheduler: %+v", st)
	}
}

// unknownFieldBodies name a field JobSpec does not have: a misspelling and
// a removed field.
var unknownFieldBodies = []struct{ body, field string }{
	{`{"kind":"userscan","entropy_bit":20,"seed":5}`, "entropy_bit"},
	{`{"kind":"kernelbase","scan_workers":4}`, "scan_workers"},
}

// A body with an unknown field is refused with 400 naming the field, and
// nothing is submitted.
func TestHTTPUnknownFieldRejected(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	for _, c := range unknownFieldBodies {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.body, resp.StatusCode)
		}
		if !strings.Contains(string(msg), c.field) {
			t.Fatalf("%s: error %q does not name %q", c.body, msg, c.field)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("unknown-field bodies reached the scheduler: %+v", st)
	}
}

// FuzzSubmitHTTP feeds arbitrary bodies to POST /jobs. Whatever the body,
// the answer is an accepted job or a client/backpressure error — 202, 400,
// 413, 429 or 503 — never a panic or a 500. Each input gets its own
// scheduler, drained before the next, so accepted jobs run to completion.
func FuzzSubmitHTTP(f *testing.F) {
	for _, list := range [][]JobSpec{DefaultMix(), DefenseMatrix()} {
		for _, spec := range list {
			b, err := json.Marshal(spec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	for _, c := range invalidSpecs {
		b, err := json.Marshal(c.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(oversizeBody())
	f.Add([]byte(`{"kind":"kpti","trampoline":18446744073709551615}`))
	f.Add([]byte(`{"kind":"userscan","entropy_bits":99}`))
	f.Add([]byte(`{"kind":"windows","drivers":-5}`))
	f.Add([]byte(`{"kind":`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})
	for _, c := range unknownFieldBodies {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Executors: 1})
		defer s.Drain()
		rec := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /jobs answered %d: %s", rec.Code, rec.Body)
		}
	})
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}
