package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzServeRequests posts arbitrary bodies to /v1/solve, /v1/betti and
// /v1/bounds: each answer must be a 200 carrying JSON or a 4xx/5xx JSON
// error envelope, and no handler or computation may panic. A short
// MaxTimeout bounds every computation, the ones a 504 abandons included,
// since every engine polls the detached request context. Models naming
// more than 5 processes are skipped: the handler parses the model inside
// the computation, so the deadline answers its 504 in time, but the
// predicate-model parse polls no context, and constructing such a model
// alone can run on for minutes after the answer.
func FuzzServeRequests(f *testing.F) {
	paths := []string{"/v1/solve", "/v1/betti", "/v1/bounds"}
	for _, seed := range []struct {
		path int
		body string
	}{
		{0, `{"model":"star:n=3","values":3,"k":2}`},
		{0, `{"model":"star:n=3","values":17,"k":2}`},
		{0, `{"model":"star:n=4","values":2,"k":1,"budget":-3,"timeout_ms":-1}`},
		{0, `{"model":"adj:0>1 2;1>0;2>","values":0,"k":0}`},
		{1, `{"model":"star:n=3","values":2,"max_dim":1}`},
		{1, `{"model":"star:n=3","values":2,"max_dim":-1}`},
		{2, `{"model":"stars:n=4,s=2","rounds":2}`},
		{2, `{"model":"star:n=3","rounds":-5,"timeout_ms":99999999}`},
		{2, `{"model":`},
		{1, `[]`},
	} {
		f.Add(uint8(seed.path), []byte(seed.body))
	}
	s := New(Config{DefaultTimeout: 200 * time.Millisecond, MaxTimeout: 200 * time.Millisecond, Log: discardLog})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		var req struct {
			Model string `json:"model"`
		}
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && processesNamed(req.Model) > 5 {
			t.Skip()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: 200 body is not JSON: %s", path, rec.Body)
			}
			return
		}
		if rec.Code < 400 || rec.Code > 599 {
			t.Fatalf("%s: status %d, want 200 or an error status", path, rec.Code)
		}
		var envelope struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Kind == "" {
			t.Fatalf("%s: status %d body is not a JSON error envelope (%v): %s", path, rec.Code, err, rec.Body)
		}
		// The handler chain answers a recovered panic "panic: …"; a panic
		// inside the computation reaches it through the singleflight as
		// "memo: flight leader panicked: …".
		if msg := envelope.Error.Message; envelope.Error.Kind == "internal" &&
			(strings.HasPrefix(msg, "panic: ") || strings.Contains(msg, "flight leader panicked")) {
			t.Fatalf("%s: %q panicked: %s", path, body, msg)
		}
	})
}

// processesNamed bounds the process count a model spec can name: its largest
// integer, or the most rows of one '|'-separated adjacency generator.
func processesNamed(spec string) int {
	most := 0
	for _, g := range strings.Split(spec, "|") {
		most = max(most, strings.Count(g, ";")+1)
	}
	for _, digits := range strings.FieldsFunc(spec, func(r rune) bool { return r < '0' || r > '9' }) {
		n, err := strconv.Atoi(digits)
		if err != nil {
			return math.MaxInt
		}
		most = max(most, n)
	}
	return most
}
