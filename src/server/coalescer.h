#ifndef CPD_SERVER_COALESCER_H_
#define CPD_SERVER_COALESCER_H_

/// \file coalescer.h
/// Compatibility shim that does nothing: single queries go straight to the
/// engine. It exists only so perfbench/src/common.{h,cc}, which still build
/// a Coalescer for RegisterCpdRoutes, keep compiling; drop those uses, then
/// delete this header and that parameter.

namespace cpd::server {

struct CoalescerOptions {};

class Coalescer {
 public:
  explicit Coalescer(CoalescerOptions) {}
};

}  // namespace cpd::server
#endif  // CPD_SERVER_COALESCER_H_
