// Package faultinject is a miniature stand-in for the repo's fault
// scheduler, shaped like the real package so the analyzer's type-driven
// checks resolve: a Point type, a registry, the Check seam and
// scheduling methods.
package faultinject

type Point string

func (p Point) Keyed(key string) Point { return p + Point(":"+key) }

const (
	PointAlphaWrite Point = "alpha.write"
	PointBetaTask   Point = "beta.task"
)

func Points() []Point {
	return []Point{
		PointAlphaWrite,
		PointBetaTask,
	}
}

func Check(p Point, key string) error { return nil }

type Scheduler struct{}

func New(seed int64) *Scheduler { return &Scheduler{} }

func (s *Scheduler) FailAt(point Point, hit int, err error) {}
func (s *Scheduler) CrashAt(point Point, hit int)           {}
func (s *Scheduler) HangAt(point Point, hit int)            {}
