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

// remoteObjectCmd routes an object subcommand to an oiraidd server.
func remoteObjectCmd(ctx context.Context, c *server.Client, cmd, bucket, key, prefix string, maxKeys int, in io.Reader, out io.Writer) error {
	switch cmd {
	case "mb":
		if bucket == "" {
			return fmt.Errorf("need -bucket")
		}
		if err := c.MakeBucketCtx(ctx, bucket); err != nil {
			return err
		}
		fmt.Fprintf(out, "created bucket %s\n", bucket)
		return nil
	case "put":
		if bucket == "" || key == "" {
			return fmt.Errorf("need -bucket and -key")
		}
		data, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		info, err := c.PutObjectCtx(ctx, bucket, key, bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "put %s/%s: %d bytes, etag %s\n", bucket, key, info.Size, info.ETag)
		return nil
	case "get":
		if bucket == "" || key == "" {
			return fmt.Errorf("need -bucket and -key")
		}
		_, err := c.GetObjectCtx(ctx, bucket, key, out)
		return err
	case "rm":
		switch {
		case bucket == "":
			return fmt.Errorf("need -bucket")
		case key == "":
			if err := c.RemoveBucketCtx(ctx, bucket); err != nil {
				return err
			}
			fmt.Fprintf(out, "removed bucket %s\n", bucket)
		default:
			if err := c.RemoveObjectCtx(ctx, bucket, key); err != nil {
				return err
			}
			fmt.Fprintf(out, "removed %s/%s\n", bucket, key)
		}
		return nil
	case "ls":
		if bucket == "" {
			bs, err := c.ListBucketsCtx(ctx)
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
			page, err := c.ListObjectsCtx(ctx, bucket, prefix, after, maxKeys)
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
		if bucket == "" || key == "" {
			return fmt.Errorf("need -bucket and -key")
		}
		info, err := c.StatObjectCtx(ctx, bucket, key)
		if err != nil {
			return err
		}
		return printInfo(info, out)
	default:
		return fmt.Errorf("object command %q not implemented", cmd)
	}
}

func printInfo(info object.Info, out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(info)
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
		cmdErr := runLocalObject(ctx, s, cmd, bucket, key, prefix, maxKeys, in, out)
		if cerr := eng.Close(); cmdErr == nil {
			cmdErr = cerr
		}
		return cmdErr
	})
}

func runLocalObject(ctx context.Context, s *object.Store, cmd, bucket, key, prefix string, maxKeys int, in io.Reader, out io.Writer) error {
	switch cmd {
	case "mb":
		if bucket == "" {
			return fmt.Errorf("need -bucket")
		}
		if err := s.CreateBucket(ctx, bucket); err != nil {
			return err
		}
		fmt.Fprintf(out, "created bucket %s\n", bucket)
		return nil
	case "put":
		if bucket == "" || key == "" {
			return fmt.Errorf("need -bucket and -key")
		}
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
		if bucket == "" || key == "" {
			return fmt.Errorf("need -bucket and -key")
		}
		_, err := s.GetObject(ctx, bucket, key, out)
		return err
	case "rm":
		switch {
		case bucket == "":
			return fmt.Errorf("need -bucket")
		case key == "":
			if err := s.DeleteBucket(ctx, bucket); err != nil {
				return err
			}
			fmt.Fprintf(out, "removed bucket %s\n", bucket)
		default:
			if err := s.DeleteObject(ctx, bucket, key); err != nil {
				return err
			}
			fmt.Fprintf(out, "removed %s/%s\n", bucket, key)
		}
		return nil
	case "ls":
		if bucket == "" {
			for _, b := range s.ListBuckets(ctx) {
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
		if bucket == "" || key == "" {
			return fmt.Errorf("need -bucket and -key")
		}
		info, err := s.StatObject(ctx, bucket, key)
		if err != nil {
			return err
		}
		return printInfo(info, out)
	default:
		return fmt.Errorf("object command %q not implemented", cmd)
	}
}
