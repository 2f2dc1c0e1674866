package store

import "time"

// clockBase anchors the monotonic readings that time device ops. A
// time.Since of it is one clock read; time.Now and a time.Since of its
// result are three.
var clockBase = time.Now()

// monotime returns the monotonic time elapsed since clockBase.
func monotime() time.Duration { return time.Since(clockBase) }
