package farm

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// openQueueOnly is Open without the worker pool: submitted jobs stay
// queued, so a test can post any number of them and run none.
func openQueueOnly(t testing.TB) *Server {
	dir := t.TempDir()
	w, _, err := openWAL(filepath.Join(dir, "queue.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s := &Server{cfg: Config{Dir: dir, Log: io.Discard}, wal: w, jobs: map[string]*job{}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// TestSubmitRefusesOversizedSpecs: a spec past a size ceiling is
// answered 400 over HTTP, and the queue log stays empty.
func TestSubmitRefusesOversizedSpecs(t *testing.T) {
	s := openQueueOnly(t)
	h := s.handler()
	for _, spec := range oversizedSpecs() {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, rec.Code)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d jobs queued, want none", n)
	}
	if fi, err := os.Stat(filepath.Join(s.cfg.Dir, "queue.log")); err != nil || fi.Size() != 0 {
		t.Errorf("queue log after refused submissions: %v, %v; want it empty", fi.Size(), err)
	}
}

// FuzzSubmitSpec posts arbitrary bytes to the submit handler. It must
// never panic, must answer 200 exactly when the body is one JobSpec
// of at most 1 MiB — a JSON object, with no unknown field, that
// validates once its defaults are filled in — followed by nothing but
// whitespace, and a 200 must queue exactly that one job; anything else
// (null, an array, a number or a string included) is a 400 that queues
// none.
func FuzzSubmitSpec(f *testing.F) {
	for _, seed := range []string{
		`{"Tests":100,"Shards":2,"BatchSize":8,"Seed":3,"Body":8}`,
		`{"DUTs":["rocket","boom"],"Arms":["thehuzz","chatfuzz"],"Tests":64}` + "\n\t ",
		`{"Tests":1} {"Tests":2}`,
		`{"Tests":1}x`,
		`{"Tests":1,"Bogus":true}`,
		`{"DUTs":["vax"]}`,
		`{"Arms":["thehuzz","thehuzz"]}`,
		`{"MismatchWeight":0.5}`,
		`{"Tests":"many"}`,
		`null`,
		` null `,
		`[]`,
		`[{"Tests":1}]`,
		`7`,
		`"spec"`,
		``,
		`{"Tests":1}` + strings.Repeat(" ", maxSpecBytes-len(`{"Tests":1}`)),
		`{"Tests":1}` + strings.Repeat(" ", maxSpecBytes),
		`{"Body":1000000000}`,
		`{"BatchSize":1073741824}`,
		`{"Shards":1000000}`,
		`{"RoundBatches":65}`,
	} {
		f.Add([]byte(seed))
	}
	s := openQueueOnly(f)
	h := s.handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// The oracle: Unmarshal requires the whole body to be one JSON
		// value, which is an object when its first byte past the
		// whitespace opens one; a strict decoder refuses unknown fields.
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		object := bytes.HasPrefix(bytes.TrimLeft(body, " \t\r\n"), []byte("{"))
		ok := len(body) <= maxSpecBytes && object && json.Unmarshal(body, new(JobSpec)) == nil &&
			dec.Decode(&spec) == nil && spec.WithDefaults().Validate() == nil

		before := len(s.Jobs())
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body)))
		queued := len(s.Jobs()) - before
		if !ok {
			if rec.Code != http.StatusBadRequest || queued != 0 {
				t.Fatalf("refusable body %q: status %d, %d jobs queued; want 400 and none", body, rec.Code, queued)
			}
			return
		}
		var st JobStatus
		if rec.Code != http.StatusOK || queued != 1 {
			t.Fatalf("valid body %q: status %d (%s), %d jobs queued; want 200 and one", body, rec.Code, rec.Body, queued)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if want := spec.WithDefaults(); st.State != JobQueued || !reflect.DeepEqual(st.Spec, want) {
			t.Fatalf("valid body %q: queued %s %+v, want queued %+v", body, st.State, st.Spec, want)
		}
	})
}
