//go:build !linux

package sim

// preciseAlarm reports that this platform has no precise alarm: Wait uses
// the runtime timer.
func preciseAlarm() alarm { return nil }
