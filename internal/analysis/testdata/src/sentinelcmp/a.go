// Package sentinelcmp is a fixture for the sentinelcmp analyzer: typed
// sentinel errors must be matched with errors.Is, never ==/!=.
package sentinelcmp

import (
	"errors"
	"fmt"
)

// ErrBoom is a package-level typed sentinel, the kind serve.ErrOverloaded
// is.
var ErrBoom = errors.New("boom")

// ErrTyped is a sentinel with a concrete error type.
var ErrTyped error = &permanentError{}

type permanentError struct{}

func (*permanentError) Error() string { return "permanent" }

// notASentinel has the naming shape but function scope; == is legal there
// only because nothing can wrap it, still we stay quiet by scope rule.
func equalityComparisons(err error) bool {
	if err == ErrBoom { // want `comparing against sentinel ErrBoom with == misses wrapped errors; use errors.Is\(err, ErrBoom\)`
		return true
	}
	if err != ErrTyped { // want `comparing against sentinel ErrTyped with != misses wrapped errors; use !errors.Is\(err, ErrTyped\)`
		return false
	}
	return false
}

func sanctioned(err error) bool {
	if err == nil { // nil check, not a sentinel comparison
		return false
	}
	if errors.Is(err, ErrBoom) { // the sanctioned form
		return true
	}
	wrapped := fmt.Errorf("context: %w", ErrBoom)
	return errors.Is(wrapped, ErrBoom)
}

func localShadow() bool {
	ErrLocal := errors.New("local")
	var err error
	return err == ErrLocal // function-scoped, nothing exports or wraps it
}

func nonErrorErrPrefix() bool {
	// A package-level Err-named non-error value must not trip the check.
	return ErrRate == 0.5
}

// ErrRate is Err-prefixed but not an error.
var ErrRate = 0.25
