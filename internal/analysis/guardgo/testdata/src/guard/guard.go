// Package guard is a miniature stand-in for the repo's resilience layer.
package guard

import "context"

func RunBounded(ctx context.Context, fn func() error) error { return fn() }
