// Package goroutine is the fixture for the goroutine rule: every raw
// go statement is flagged unless it carries a waiver.
package goroutine

// workerPool stands in for the barrier worker pool whose methods and
// constructor this rule used to exempt; no receiver type or function
// name is exempt any more.
type workerPool struct {
	work chan func()
}

// newShardGroup carries the constructor name the rule used to exempt;
// it spawns workers and must be flagged.
func newShardGroup(n int) *workerPool {
	g := &workerPool{work: make(chan func())}
	for i := 0; i < n; i++ {
		go func() { // want "raw go statement in the serial simulator core"
			for f := range g.work {
				f()
			}
		}()
	}
	return g
}

// run is a method on a pool type and must be flagged.
func (g *workerPool) run(f func()) {
	go f() // want "raw go statement in the serial simulator core"
}

// rogueInLit is a go statement inside a closure — still flagged.
func rogueInLit(fs []func()) func() {
	return func() {
		for _, f := range fs {
			go f() // want "raw go statement in the serial simulator core"
		}
	}
}

// waivedSpawn documents why ordering cannot leak.
func waivedSpawn(f func(), done chan struct{}) {
	//lint:ordered awaited before any event is emitted; result order cannot leak
	go func() { f(); close(done) }()
	<-done
}
