package nn

// MappedBytes exposes the mapped int8 row bytes to the nn_test package,
// whose tests build whole models.
func MappedBytes() int64 { return mappedBytes.Load() }
