package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// decodeBody runs decodeJobRequests on a POST of body, as JSONL when jsonl
// is set and by shape otherwise.
func decodeBody(body []byte, jsonl bool) ([]JobRequest, error) {
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if jsonl {
		r.Header.Set("Content-Type", "application/x-ndjson")
	} else {
		r.Header.Set("Content-Type", "application/json")
	}
	return decodeJobRequests(r)
}

// TestDecodeJobRequestsShapes pins the three body shapes, the JSONL line
// conventions (blank, '#' and CRLF lines) and the line numbers of JSONL
// errors.
func TestDecodeJobRequestsShapes(t *testing.T) {
	a := JobRequest{ID: "a", Source: "vertex x delay=1\nseq v0 x\n"}
	b := JobRequest{ID: "b", Source: "vertex y unbounded\n", WellPose: true, TimeoutMS: 5}
	line := func(r JobRequest) string {
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for _, tc := range []struct {
		name  string
		body  string
		jsonl bool
		want  []JobRequest
	}{
		{"object", " \n" + line(a) + "\n", false, []JobRequest{a}},
		{"array", "\t[" + line(a) + "," + line(b) + "]", false, []JobRequest{a, b}},
		{"jsonl", "# jobs\r\n\r\n" + line(a) + "\r\n  \n" + line(b), true, []JobRequest{a, b}},
	} {
		got, err := decodeBody([]byte(tc.body), tc.jsonl)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, got, tc.want)
		}
	}
	_, err := decodeBody([]byte(line(a)+"\n\n# c\n{\"id\": 3}\n"), true)
	if err == nil || !strings.HasPrefix(err.Error(), "line 4: ") {
		t.Errorf("bad fourth line: error %v, want it to name line 4", err)
	}
}

// TestDecodeJobRequestsAllocs pins what decoding a 1 MiB POST body
// allocates, as one JSON object and as JSONL: at most 5 bodies' worth
// (the least TotalAlloc delta of 5 runs). The body is read into one
// exactly-sized buffer and decoded in place; what remains is json's
// unquoting of the sources into strings.
func TestDecodeJobRequestsAllocs(t *testing.T) {
	var src strings.Builder
	for v := 0; src.Len() < 1<<20; v++ {
		fmt.Fprintf(&src, "vertex v%d delay=3\nseq v0 v%d\n", v, v)
	}
	object, err := json.Marshal(JobRequest{ID: "big", Source: src.String()})
	if err != nil {
		t.Fatal(err)
	}
	var lines bytes.Buffer
	const parts = 16
	chunk := src.Len() / parts
	for i := 0; i < parts; i++ {
		out, err := json.Marshal(JobRequest{ID: fmt.Sprint(i), Source: src.String()[i*chunk : (i+1)*chunk]})
		if err != nil {
			t.Fatal(err)
		}
		lines.Write(out)
		lines.WriteString("\n")
	}
	for _, tc := range []struct {
		name  string
		body  []byte
		jsonl bool
	}{{"object", object, false}, {"jsonl", lines.Bytes(), true}} {
		best := uint64(0)
		for run := 0; run < 5; run++ {
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(tc.body))
			if tc.jsonl {
				r.Header.Set("Content-Type", "application/x-ndjson")
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			reqs, err := decodeJobRequests(r)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(reqs) == 0 {
				t.Fatalf("%s: no requests decoded", tc.name)
			}
			if d := m1.TotalAlloc - m0.TotalAlloc; run == 0 || d < best {
				best = d
			}
		}
		size := uint64(len(tc.body))
		t.Logf("%s: a %d-byte body allocates %d bytes (%.2f bodies)", tc.name, size, best, float64(best)/float64(size))
		if best > 5*size {
			t.Errorf("%s: decoding a %d-byte body allocates %d bytes, want at most 5 bodies (%d)", tc.name, size, best, 5*size)
		}
	}
}

// FuzzDecodeJobRequests feeds decodeJobRequests arbitrary bodies, by shape
// and as JSONL. It must never panic, and every body it accepts, re-encoded
// one json.Marshal per line, must decode through the JSONL path to equal
// requests.
func FuzzDecodeJobRequests(f *testing.F) {
	var seeds [][]byte
	for i, path := range []string{"../../examples/gcd/gcd.cg", "../../examples/illposed/illposed.cg"} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		out, err := json.Marshal(JobRequest{ID: fmt.Sprint("job", i), Source: string(src), WellPose: i == 1})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, out)
	}
	gcd, ill := string(seeds[0]), string(seeds[1])
	f.Add([]byte(gcd), false)
	f.Add([]byte(ill), false)
	f.Add([]byte("["+gcd+",\n"+ill+"]"), false)
	f.Add([]byte("# two jobs\n\n"+gcd+"\r\n\r\n  # the ill-posed one\r\n"+ill+"\r\n"), true)
	f.Fuzz(func(t *testing.T, body []byte, jsonl bool) {
		reqs, err := decodeBody(body, jsonl)
		if err != nil {
			return
		}
		var again bytes.Buffer
		for _, r := range reqs {
			out, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", r, err)
			}
			again.Write(out)
			again.WriteByte('\n')
		}
		back, err := decodeBody(again.Bytes(), true)
		if err != nil {
			t.Fatalf("re-encoded requests do not decode as JSONL: %v\n%s", err, again.Bytes())
		}
		if !slices.Equal(back, reqs) {
			t.Fatalf("re-encoded requests decode to %+v, want %+v", back, reqs)
		}
	})
}
