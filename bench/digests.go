package main

// pinnedDigests are the seed-1 output digests of the full-size workloads.
// grid-cold's is the sha256 of `factcheck -scale 1.0 -par 2` standard
// output; a serve workload's digests the distinct answers to the plan's
// first 20,000 requests (see prefixDigest). A change that alters any of
// them changes what the program answers, not how fast.
var pinnedDigests = map[string]string{
	"grid-cold":    "3987281670421daaab90d5f37c1b1d520e5005fbadcff6076070344af29861f0",
	"serve-hot":    "bd97cbb9c2e3dcac",
	"serve-sweep":  "4a2f15fdd726ab5a",
	"serve-ingest": "7d6f652c77371d05",
}
