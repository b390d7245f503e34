package pipeline

import (
	"context"

	"guard"
)

// Allowed: the goroutine runs its work under guard.RunBounded.
func boundedSpawn(ctx context.Context) {
	go func() {
		_ = guard.RunBounded(ctx, func() error { return nil })
	}()
}

// Flagged: nothing tracks this goroutine's lifetime.
func bareSpawn() {
	go func() {}() // want `bare goroutine in guarded package`
}

// Flagged: a named function spawned bare is just as invisible.
func bareNamedSpawn() {
	go work() // want `bare goroutine in guarded package`
}

func work() {}

// Allowed: a reviewed exception.
func blessedSpawn(done chan struct{}) {
	//bw:guarded one-shot close notifier, cannot stall
	go func() { close(done) }()
}

// Flagged: detaching from the caller's context severs deadlines.
func detach() context.Context {
	return context.Background() // want `context\.Background\(\) in guarded package`
}

func todo() context.Context {
	return context.TODO() // want `context\.TODO\(\) in guarded package`
}

// Allowed: threading the caller's context.
func carry(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

// Allowed: annotated process-root context.
func blessedRoot() context.Context {
	return context.Background() //bw:guarded daemon entry point owns the root context
}
