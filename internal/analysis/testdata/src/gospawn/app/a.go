// Package app is a gospawn fixture for an ordinary library package: raw go
// statements must go through the pool.
package app

import "sync"

func rawSpawn() {
	done := make(chan struct{})
	go func() { close(done) }() // want "raw go statement outside internal/parallel, internal/serve, internal/online, and cmd/"
	<-done
}

func spawnNamed(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go f() // want "raw go statement outside internal/parallel, internal/serve, internal/online, and cmd/"
}

// annotated shows the escape hatch with and without a reason.
func annotated(f func()) {
	//pipelayer:allow-spawn fire-and-forget shutdown hook, joined by process exit
	go f()
	go f() //pipelayer:allow-spawn // want "raw go statement" "needs a reason"
}
