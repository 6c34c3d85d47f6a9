package sweepd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"smtsim"
	"smtsim/internal/cellstore"
	"smtsim/internal/sweep"
)

// fillDistinct sets every exported field under v to a value no other
// field holds, drawing from *n. Floats get fractions with no short
// decimal form, and some are tiny or huge, so the encoder's exponent
// form appears too. A field kind it does not know fails the test:
// a new field type needs a decoder case as well as a case here.
func fillDistinct(t testing.TB, v reflect.Value, n *int) {
	t.Helper()
	*n++
	k := *n
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, v.Field(i), n)
			}
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(k) * 1_000_003)
	case reflect.Uint64:
		v.SetUint(uint64(k)*1_000_000_007 + 1<<40)
	case reflect.Float64:
		f := float64(k) + 1.0/float64(k+2)
		switch k % 3 {
		case 1:
			f *= 1e-9
		case 2:
			f *= 1e22
		}
		v.SetFloat(f)
	case reflect.String:
		v.SetString(fmt.Sprintf("bench%d", k))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	default:
		t.Fatalf("fillDistinct: no case for %s (%s)", v.Type(), v.Kind())
	}
}

// distinctResult is a Result with every field, thread fields included,
// set to its own value.
func distinctResult(t testing.TB) smtsim.Result {
	var r smtsim.Result
	n := 0
	fillDistinct(t, reflect.ValueOf(&r).Elem(), &n)
	return r
}

// TestStreamLineEveryField round-trips a line whose result sets every
// field of smtsim.Result and ThreadResult: the parser must take it
// without falling back and return exactly what was encoded.
func TestStreamLineEveryField(t *testing.T) {
	r := distinctResult(t)
	want := streamLine{cellLine: cellLine{Index: 7, Hash: "abc123", Result: &r}}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got streamLine
	if err := parseStreamLine(b, &got); err != nil {
		t.Fatalf("parser refused %s", b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", *got.Result, r)
	}
}

// recordStream runs a four-cell sweep through a real server and
// returns the lines handleStream writes for it: a cell from the real
// simulator, one with every result field set, a plain fake cell, a
// failed cell whose message needs escaping, and the done line.
func recordStream(tb testing.TB) [][]byte {
	tb.Helper()
	store, err := cellstore.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	specs := testSpecs(4)
	rich := distinctResult(tb)
	simulate := map[string]func(cellstore.Spec) (smtsim.Result, error){
		specs[0].Key(): sweep.SimulateSpec,
		specs[1].Key(): func(cellstore.Spec) (smtsim.Result, error) { return rich, nil },
		specs[2].Key(): fakeSimulate,
		specs[3].Key(): func(cellstore.Spec) (smtsim.Result, error) {
			return smtsim.Result{}, errors.New("bad \"cell\" <x>\nsecond line")
		},
	}
	srv, err := New(Config{
		Store:        store,
		Workers:      2,
		PollInterval: 5 * time.Millisecond,
		Simulate:     func(s cellstore.Spec) (smtsim.Result, error) { return simulate[s.Key()](s) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Shutdown()
	sub := submitDirect(tb, srv, specs)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+sub.ID+"/stream", nil))
	lines := bytes.Split(bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(specs)+1 {
		tb.Fatalf("stream has %d lines, want %d:\n%s", len(lines), len(specs)+1, rec.Body)
	}
	return lines
}

// jsonLine is the reference decode.
func jsonLine(b []byte) (streamLine, error) {
	var l streamLine
	err := json.Unmarshal(b, &l)
	return l, err
}

// TestStreamLinesMatchEncodingJSON runs real handleStream output
// through both decoders. Every line without an escape must take the
// parser; the error line's escapes send it to encoding/json.
func TestStreamLinesMatchEncodingJSON(t *testing.T) {
	var cells, fails, dones int
	for _, b := range recordStream(t) {
		want, err := jsonLine(b)
		if err != nil {
			t.Fatalf("encoding/json refused %s: %v", b, err)
		}
		switch {
		case want.Done:
			dones++
		case want.Error != "":
			fails++
			if want.Error != "simulating "+want.Hash[:8]+": bad \"cell\" <x>\nsecond line" {
				t.Errorf("error line decoded as %q", want.Error)
			}
		default:
			cells++
		}
		var fast streamLine
		fastErr := parseStreamLine(b, &fast)
		if hasEscape := bytes.IndexByte(b, '\\') >= 0; hasEscape != (fastErr != nil) {
			t.Errorf("escape in line: %v, parser error: %v: %s", hasEscape, fastErr, b)
		}
		if fastErr == nil && !reflect.DeepEqual(fast, want) {
			t.Errorf("parser: %+v\nencoding/json: %+v", fast, want)
		}
		got, err := decodeStreamLine(b)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("decodeStreamLine: %+v, %v\nencoding/json: %+v", got, err, want)
		}
	}
	if cells != 3 || fails != 1 || dones != 1 {
		t.Errorf("stream had %d cell, %d error and %d done lines, want 3, 1, 1", cells, fails, dones)
	}
}

// fallbackLines are inputs outside the stream's exact shape: the
// parser refuses each, and decodeStreamLine must give what
// encoding/json gives, error or value.
var fallbackLines = []string{
	`{"index":1,"hash":"h","result":{"IPC":1.5},"extra":3}`,
	`{"index":1, "hash":"h"}`,
	` {"done":true,"total":2}`,
	`{"done":true,"total":2}` + "\r",
	`{"index":1,"hash":"h\u0041"}`,
	`{"index":1,"error":"a\"b"}`,
	`{"index":1,"hash":"h","result":{"Threads":null}}`,
	`{"index":1,"hash":"h","result":null}`,
	`{"Index":1,"hash":"h"}`,
	`{"index":1,"hash":"h","result":{"ipc":2}}`,
	`{"index":1,"result":{"IPC":1},"result":{"Cycles":2}}`,
	`{"index":1,"result":{"Threads":[{"IPC":1}],"Threads":[{"Committed":2}]}}`,
	`{"index":01}`,
	`{"index":1.0}`,
	`{"index":1e2}`,
	`{"result":{"IPC":.5}}`,
	`{"result":{"IPC":1.}}`,
	`{"result":{"IPC":+1}}`,
	`{"result":{"IPC":1e400}}`,
	`{"result":{"Committed":-1}}`,
	`{"index":99999999999999999999}`,
	`{"done":true}{}`,
	`{"done":true,}`,
	`{"done":tru}`,
	`{"hash":"` + "\xff" + `"}`,
	`{"hash":"` + "\x01" + `"}`,
	`[]`,
	``,
}

func TestStreamLineFallback(t *testing.T) {
	for _, s := range fallbackLines {
		b := []byte(s)
		var fast streamLine
		if parseStreamLine(b, &fast) == nil {
			t.Errorf("parser accepted %q", s)
		}
		want, wantErr := jsonLine(b)
		got, err := decodeStreamLine(b)
		if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decodeStreamLine = %+v, %v; encoding/json = %+v, %v", s, got, err, want, wantErr)
		}
	}
}

// FuzzStreamLine holds the parser to encoding/json: whatever it
// accepts, encoding/json must accept and decode to the same value.
func FuzzStreamLine(f *testing.F) {
	for _, b := range recordStream(f) {
		f.Add(b)
	}
	for _, s := range fallbackLines {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var fast streamLine
		if parseStreamLine(b, &fast) != nil {
			return
		}
		want, err := jsonLine(b)
		if err != nil {
			t.Fatalf("parser accepted %q, encoding/json refused it: %v", b, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("%q: parser %+v, encoding/json %+v", b, fast, want)
		}
	})
}
