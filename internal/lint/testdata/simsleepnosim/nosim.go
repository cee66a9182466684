// Test fixture for the simsleep analyzer's scope: this package does
// not import the simulator, so wall-clock sleeps and timers are
// allowed.
package simsleepnosim

import "time"

func retryBackoff() {
	time.Sleep(50 * time.Millisecond)
	<-time.After(50 * time.Millisecond)
}
