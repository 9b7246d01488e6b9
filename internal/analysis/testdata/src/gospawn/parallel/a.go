// Package parallel (NOT under internal/) is the gospawn reject twin of the
// internal/parallel fixture: the exemption matches the internal/parallel
// path segment pair, so a package merely named parallel is still flagged.
package parallel

func sneaky(f func()) {
	go f() // want "raw go statement outside internal/parallel, internal/serve, internal/online, and cmd/"
}
