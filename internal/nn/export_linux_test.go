package nn

// MappedBytes exposes the mapped embedding row bytes, fp32 and int8, to
// the nn_test package, whose tests build whole models.
func MappedBytes() int64 { return mappedBytes.Load() }
