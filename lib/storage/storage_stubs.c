/* memcpy between Bigarray storage and OCaml bytes, for the block
 * device's blocks and the journal's log chunks.
 *
 * Both stubs are [@@noalloc]: they neither allocate nor raise, so the
 * OCaml side passes unboxed ints and checks every bound before the
 * call (see Mem). A 2 KB block then copies at memcpy speed instead of
 * through an OCaml word loop.
 */

#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

value rikit_blit_ba_to_bytes(value src, value src_pos, value dst,
                             value dst_pos, value len)
{
  memcpy(Bytes_val(dst) + Long_val(dst_pos),
         (const char *)Caml_ba_data_val(src) + Long_val(src_pos),
         (size_t)Long_val(len));
  return Val_unit;
}

value rikit_blit_bytes_to_ba(value src, value src_pos, value dst,
                             value dst_pos, value len)
{
  memcpy((char *)Caml_ba_data_val(dst) + Long_val(dst_pos),
         Bytes_val(src) + Long_val(src_pos), (size_t)Long_val(len));
  return Val_unit;
}
