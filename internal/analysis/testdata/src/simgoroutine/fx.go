// Package fx is a simgoroutine fixture (analyzed as
// ec2wfsim/internal/flow/fx, an event-loop package).
package fx

import (
	"sync" // want `import of sync in event-loop package`
	"time"
)

func fanOut(done chan struct{}) {
	go close(done) // want `bare goroutine in event-loop package`
}

func napAndLock(mu *sync.Mutex) {
	time.Sleep(time.Millisecond) // want `wall-clock sleep/timer in event-loop package`
	mu.Lock()
	defer mu.Unlock()
}

// Channels on their own are just data structures; the engine decides
// who runs.
func recv(c chan int) int { return <-c }

func suppressedGo(done chan struct{}) {
	//wfvet:ignore simgoroutine fixture stand-in for a justified exception to the rule
	go close(done)
}
