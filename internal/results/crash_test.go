package results

import (
	"bufio"
	"math/rand/v2"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"factcheck/internal/strategy"
)

// crashChildEnv carries the store directory and the first fingerprint to
// a re-executed test binary, making it the crash test's writer.
const (
	crashChildDir   = "RESULTS_CRASH_CHILD_DIR"
	crashChildFirst = "RESULTS_CRASH_CHILD_FIRST"
)

// crashOutcomes is the cell the crash writer puts under fp: a function of
// fp alone, padded so a snapshot spans several kilobytes and a kill can
// land inside its write.
func crashOutcomes(fp Fingerprint) []strategy.Outcome {
	outs := testOutcomes()
	id := strconv.FormatUint(uint64(fp), 10)
	for i := range outs {
		outs[i].FactID = "crash-" + id
		outs[i].Explanation = strings.Repeat("cell "+id+" ", 400)
	}
	return outs
}

// crashCells is how many fingerprints one writer cycles over, so that
// most of its Puts replace a cell it already wrote.
const crashCells = 16

// TestStoreCrashWriter is the crash test's child: it puts the cells
// first..first+crashCells-1 over and over until it is killed, printing
// each fingerprint once its Put has returned. Run directly, it skips.
func TestStoreCrashWriter(t *testing.T) {
	dir := os.Getenv(crashChildDir)
	if dir == "" {
		t.Skip("crash writer: runs only as TestStoreCrashLeavesCompleteCells' child")
	}
	first, err := strconv.ParseUint(os.Getenv(crashChildFirst), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); ; i++ {
		fp := Fingerprint(first + i%crashCells)
		if err := s.Put(fp, crashOutcomes(fp)); err != nil {
			t.Fatal(err)
		}
		os.Stdout.WriteString(strconv.FormatUint(uint64(fp), 10) + "\n")
	}
}

// TestStoreCrashLeavesCompleteCells SIGKILLs a writer process at seeded
// instants while it puts and replaces cells in a loop. After every kill a
// reopened store must hold every cell whose Put had returned, in this
// round or an earlier one, each equal to what was written, and no other.
func TestStoreCrashLeavesCompleteCells(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(7, 11))
	acked := map[Fingerprint]bool{}
	for round := 0; round < 12; round++ {
		first := uint64(round) << 32
		cmd := exec.Command(os.Args[0], "-test.run=^TestStoreCrashWriter$", "-test.count=1")
		cmd.Env = append(os.Environ(), crashChildDir+"="+dir, crashChildFirst+"="+strconv.FormatUint(first, 10))
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The writer's acknowledgements, read until its stdout closes.
		started := make(chan struct{})
		var returned []Fingerprint
		readDone := make(chan struct{})
		go func() {
			defer close(readDone)
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				fp, err := strconv.ParseUint(sc.Text(), 10, 64)
				if err != nil {
					continue // the test binary's own output
				}
				if returned = append(returned, Fingerprint(fp)); len(returned) == 1 {
					close(started)
				}
			}
		}()
		select {
		case <-started:
		case <-readDone:
			cmd.Wait()
			t.Fatalf("round %d: the writer exited before its first Put returned", round)
		}
		time.Sleep(time.Duration(rng.IntN(40_000)) * time.Microsecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		<-readDone
		cmd.Wait()
		for _, fp := range returned {
			acked[fp] = true
		}

		s, err := Open(dir)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		for fp := range acked {
			got, ok := s.Get(fp)
			if !ok {
				t.Fatalf("round %d: cell %d, whose Put returned, is missing", round, fp)
			}
			if !reflect.DeepEqual(got, crashOutcomes(fp)) {
				t.Fatalf("round %d: cell %d reloaded with different outcomes", round, fp)
			}
		}
		// The Put in flight at the kill may have landed unacknowledged;
		// then it must be complete, and it counts as written from here on.
		for fp := Fingerprint(first); fp < Fingerprint(first+crashCells); fp++ {
			if got, ok := s.Get(fp); ok && !acked[fp] {
				if !reflect.DeepEqual(got, crashOutcomes(fp)) {
					t.Fatalf("round %d: unacknowledged cell %d reloaded with different outcomes", round, fp)
				}
				acked[fp] = true
			}
		}
		if s.Len() != len(acked) {
			t.Fatalf("round %d: store holds %d cells, %d written", round, s.Len(), len(acked))
		}
		t.Logf("round %d: %d puts returned before the kill, %d cells", round, len(returned), s.Len())
	}
}
