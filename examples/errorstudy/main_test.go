package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// stdoutSHA256 is the sha256 of the example's output.
const stdoutSHA256 = "c119f6cf33135a066b1a662e5c4192b36915394c1862738ebccd56b07c63efb1"

// TestOutputPinned pins the example's output byte for byte.
func TestOutputPinned(t *testing.T) {
	h := sha256.New()
	if err := run(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != stdoutSHA256 {
		t.Errorf("output sha256 %s, pinned %s", got, stdoutSHA256)
	}
}
