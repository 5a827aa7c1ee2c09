package jsonlog

// HandedOver is the number of values Append has given to encoding/json, for
// the external tests that encode other packages' types.
func HandedOver() int64 { return handedOver.Load() }
