package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestBinaryRowRendersPinned pins the SHA-256 of the two renders built
// from binary confusion rows — the storage-free TAGE row, the JRS rows
// (the jrs family over the same TAGE) and the registry self-confidence
// schemes, each a spec run whose confusion is sim.Result.Binary of its
// seven-class tally — at a small limit. Any drift in how a row is driven
// or derived changes a digit and the hash.
func TestBinaryRowRendersPinned(t *testing.T) {
	r := NewWorkers(6000, 2)
	for _, tc := range []struct{ name, want string }{
		{"estimators", "bec8e880c5099a752aca58f5ac3d88dd4805cf5b4b28d865a92b54b03753f77b"},
		{"selfconf", "033fab14487e3b61fbc35eee6d93145abdf1a802ef6a67b19722dba1262e72d5"},
	} {
		out, err := r.Run(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		out[0].Render(&buf)
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s render sha256 = %s, want %s\n%s", tc.name, got, tc.want, buf.String())
		}
	}
}
