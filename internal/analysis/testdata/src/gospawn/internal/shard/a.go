// Package shard is a gospawn fixture standing in for the shard chain (its
// import path ends in internal/shard). The chain carries batches on its
// callers' goroutines and owns none, so the package is off the allowlist
// and a raw go statement there is flagged.
package shard

func chain(stages int, f func(int)) {
	for k := 0; k < stages; k++ {
		go f(k) // want "raw go statement outside internal/parallel, internal/serve, internal/online, and cmd/"
	}
}
