// Object-plane subcommands: mb/put/get/rm/ls/stat manage buckets and
// objects, remotely against an oiraidd server (-remote) or locally over
// an array directory (-dir).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/server"
)

// isObjectCmd reports whether cmd belongs to the object plane.
func isObjectCmd(cmd string) bool {
	switch cmd {
	case "mb", "put", "get", "rm", "ls", "stat":
		return true
	}
	return false
}

// objectPlane is what the object verbs need from the plane they drive: an
// *object.Store mounted from -dir, or an oiraidd server behind -remote.
type objectPlane interface {
	CreateBucket(ctx context.Context, name string) error
	DeleteBucket(ctx context.Context, name string) error
	ListBuckets(ctx context.Context) ([]object.BucketInfo, error)
	PutObject(ctx context.Context, bucket, key string, r io.Reader, size int64, meta map[string]string) (object.Info, error)
	GetObject(ctx context.Context, bucket, key string, w io.Writer) (object.Info, error)
	StatObject(ctx context.Context, bucket, key string) (object.Info, error)
	DeleteObject(ctx context.Context, bucket, key string) error
	ListObjects(ctx context.Context, bucket, prefix, after string, max int) (object.ListPage, error)
}

// localPlane is an *object.Store; only ListBuckets, which cannot fail
// locally, needs the wire-shaped signature.
type localPlane struct{ *object.Store }

func (p localPlane) ListBuckets(ctx context.Context) ([]object.BucketInfo, error) {
	return p.Store.ListBuckets(ctx), nil
}

// remotePlane names the client's calls as the store names them.
type remotePlane struct{ c *server.Client }

func (p remotePlane) CreateBucket(ctx context.Context, name string) error {
	return p.c.MakeBucketCtx(ctx, name)
}
func (p remotePlane) DeleteBucket(ctx context.Context, name string) error {
	return p.c.RemoveBucketCtx(ctx, name)
}
func (p remotePlane) ListBuckets(ctx context.Context) ([]object.BucketInfo, error) {
	return p.c.ListBucketsCtx(ctx)
}
func (p remotePlane) PutObject(ctx context.Context, bucket, key string, r io.Reader, size int64, meta map[string]string) (object.Info, error) {
	return p.c.PutObjectCtx(ctx, bucket, key, r, size, meta)
}
func (p remotePlane) GetObject(ctx context.Context, bucket, key string, w io.Writer) (object.Info, error) {
	return p.c.GetObjectCtx(ctx, bucket, key, w)
}
func (p remotePlane) StatObject(ctx context.Context, bucket, key string) (object.Info, error) {
	return p.c.StatObjectCtx(ctx, bucket, key)
}
func (p remotePlane) DeleteObject(ctx context.Context, bucket, key string) error {
	return p.c.RemoveObjectCtx(ctx, bucket, key)
}
func (p remotePlane) ListObjects(ctx context.Context, bucket, prefix, after string, max int) (object.ListPage, error) {
	return p.c.ListObjectsCtx(ctx, bucket, prefix, after, max)
}

// objectCmd runs one object subcommand against either plane.
func objectCmd(ctx context.Context, s objectPlane, cmd, bucket, key, prefix string, maxKeys int, in io.Reader, out io.Writer) error {
	switch {
	case (cmd == "mb" || cmd == "rm") && bucket == "":
		return fmt.Errorf("need -bucket")
	case (cmd == "put" || cmd == "get" || cmd == "stat") && (bucket == "" || key == ""):
		return fmt.Errorf("need -bucket and -key")
	}
	switch cmd {
	case "mb":
		if err := s.CreateBucket(ctx, bucket); err != nil {
			return err
		}
		fmt.Fprintf(out, "created bucket %s\n", bucket)
		return nil
	case "put":
		data, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		info, err := s.PutObject(ctx, bucket, key, bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "put %s/%s: %d bytes, etag %s\n", bucket, key, info.Size, info.ETag)
		return nil
	case "get":
		_, err := s.GetObject(ctx, bucket, key, out)
		return err
	case "rm":
		if key == "" {
			if err := s.DeleteBucket(ctx, bucket); err != nil {
				return err
			}
			fmt.Fprintf(out, "removed bucket %s\n", bucket)
			return nil
		}
		if err := s.DeleteObject(ctx, bucket, key); err != nil {
			return err
		}
		fmt.Fprintf(out, "removed %s/%s\n", bucket, key)
		return nil
	case "ls":
		if bucket == "" {
			bs, err := s.ListBuckets(ctx)
			if err != nil {
				return err
			}
			for _, b := range bs {
				fmt.Fprintf(out, "%-40s %6d object(s)  %s\n", b.Name, b.Objects, b.Created.Format("2006-01-02 15:04:05"))
			}
			return nil
		}
		after := ""
		for {
			page, err := s.ListObjects(ctx, bucket, prefix, after, maxKeys)
			if err != nil {
				return err
			}
			for _, o := range page.Objects {
				fmt.Fprintf(out, "%12d  %s  %s\n", o.Size, o.Modified.Format("2006-01-02 15:04:05"), o.Key)
			}
			if !page.Truncated {
				return nil
			}
			after = page.NextAfter
		}
	case "stat":
		info, err := s.StatObject(ctx, bucket, key)
		if err != nil {
			return err
		}
		// What a HEAD carries, so that -dir and -remote print the same: the
		// etag is the content's CRC-32C, and Last-Modified has whole seconds.
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Bucket   string            `json:"bucket"`
			Key      string            `json:"key"`
			Size     int64             `json:"size"`
			ETag     string            `json:"etag"`
			Modified time.Time         `json:"modified"`
			UserMeta map[string]string `json:"user_meta,omitempty"`
		}{info.Bucket, info.Key, info.Size, info.ETag, info.Modified.UTC().Truncate(time.Second), info.UserMeta})
	default:
		return fmt.Errorf("object command %q not implemented", cmd)
	}
}

// localObjectCmd runs an object subcommand against a local array
// directory: the array is mounted, the engine and object store brought up
// (replaying the object plane from the metadata journal), the command
// executed, and the array sealed again.
func localObjectCmd(ctx context.Context, dir, cmd, bucket, key, prefix string, maxKeys int, in io.Reader, out io.Writer) error {
	return withArray(dir, func(mnt *oiraid.Mount, _ *oiraid.Geometry) error {
		eng, err := engine.New(mnt.Array, engine.Options{})
		if err != nil {
			return err
		}
		s, err := object.New(eng, object.Options{})
		if err != nil {
			eng.Close()
			return err
		}
		cmdErr := objectCmd(ctx, localPlane{s}, cmd, bucket, key, prefix, maxKeys, in, out)
		if cerr := eng.Close(); cmdErr == nil {
			cmdErr = cerr
		}
		return cmdErr
	})
}
