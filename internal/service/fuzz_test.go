package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
)

// FuzzRunSpec feeds arbitrary bodies through the decoder POST /v1/runs
// uses, then through RunSpec.Validate and Options.Validate: nothing may
// panic, and a spec the service would accept must survive being encoded
// and decoded again unchanged.
func FuzzRunSpec(f *testing.F) {
	for _, body := range []string{
		`{"runner":"fig4"}`,
		`{"runner":"nope"}`,
		`{"runner":"fig4","reps":-1}`,
		`{"runner":"fig4","bogus":true}`,
		`{"runner":"fig4","shards":2}`,
		`{"runner":"fig4","seed":2}`,
		`{"runner":"fig4","seed":7}`,
		`{"runner":"fig6"}`,
		`{"runner":"fig4","aqm":"droptail"}`,
		`{"runner":"resilience-smoke"}`,
		`{"runner":"eq22"}`,
		`{"runner":"fig8million-smoke","fidelity":"hybrid"}`,
		`{"runner":"recoverysweep-smoke","recovery":"rack-tlp","aqm":"codel"}`,
		`{"runner":"` + string(bytes.Repeat([]byte("x"), 64)) + `"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		optsErr := spec.Options().Validate()
		if spec.Validate() != nil {
			return
		}
		if optsErr != nil {
			t.Fatalf("spec %+v passed Validate, its options failed: %v", spec, optsErr)
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		again, err := decodeSpec(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(enc)))
		if err != nil || again != spec {
			t.Fatalf("accepted spec %+v encodes as %s, which decodes to %+v (%v)", spec, enc, again, err)
		}
	})
}
