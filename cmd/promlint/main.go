// Command promlint checks a Prometheus text exposition under the strict
// obs.Lint rules, so a scraped /metricsz can gate CI:
//
//	curl -s localhost:8095/metricsz | promlint
//	promlint metrics.txt
//
// It prints "promlint: ok", or the first violation and exits nonzero.
package main

import (
	"fmt"
	"io"
	"os"

	"factcheck/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "promlint:", err)
		os.Exit(1)
	}
}

// run lints in, or the file named by the single argument, and reports ok
// on out.
func run(args []string, in io.Reader, out io.Writer) error {
	switch len(args) {
	case 0:
	case 1:
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("usage: promlint [FILE] (reads stdin without FILE)")
	}
	if err := obs.Lint(in); err != nil {
		return err
	}
	fmt.Fprintln(out, "promlint: ok")
	return nil
}
