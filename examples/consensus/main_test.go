package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// stdoutSHA256 is the sha256 of the example's output.
const stdoutSHA256 = "b331e530401b794f20282eed56988bf9fe2624681ff2405878d81f8acfa12f8f"

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
