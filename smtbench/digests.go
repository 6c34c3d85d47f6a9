package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// digests.json maps "<workload>/<size>/seed=<n>[/<cell>]" to the sha256
// of the output that key names. It holds the default seed (1) and the
// held-out seed (2) of both sizes; other seeds are checked by the
// differential re-runs alone.
//
//go:embed digests.json
var embeddedDigests []byte

func loadDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(embeddedDigests, &m); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	return m, nil
}

// recordDigests merges got into the digest file at path.
func recordDigests(path string, got map[string]string) error {
	m := map[string]string{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("digests: %w", err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for k, v := range got {
		m[k] = v
	}
	out, err := json.MarshalIndent(m, "", "  ") // sorted keys, one per line
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// digestKey names one checked output.
func (e *env) digestKey(workload string, parts ...string) string {
	k := fmt.Sprintf("%s/%s/seed=%d", workload, e.size.Name, e.seed)
	for _, p := range parts {
		k += "/" + p
	}
	return k
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
