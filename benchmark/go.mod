module github.com/s3dgo/s3d/benchmark

go 1.22

require github.com/s3dgo/s3d v0.0.0

replace github.com/s3dgo/s3d => ../
