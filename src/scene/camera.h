/**
 * @file
 * Pinhole / thin-lens camera.
 *
 * The same camera maths runs inside the simulated ray-generation shaders
 * (field-by-field from a descriptor buffer) and inside the CPU reference
 * tracer, so primary rays agree bit-for-bit between the two renderers.
 */

#ifndef VKSIM_SCENE_CAMERA_H
#define VKSIM_SCENE_CAMERA_H

#include <cmath>

#include "geom/ray.h"
#include "geom/vec.h"

namespace vksim {

/** POD camera record; serialized into the camera descriptor buffer. */
struct Camera
{
    Vec3 position{0.f, 0.f, 0.f};
    float tanHalfFov = 1.f;
    Vec3 forward{0.f, 0.f, -1.f};
    float aspect = 1.f;
    Vec3 right{1.f, 0.f, 0.f};
    float aperture = 0.f; ///< lens radius; 0 disables depth of field
    Vec3 up{0.f, 1.f, 0.f};
    float focusDistance = 1.f;

    /**
     * Build a camera looking from `eye` to `target`. Defined out of line
     * (camera.cc) so every build evaluates the field of view with the
     * libm tangent: inlined at a call site with a constant angle, the
     * optimizer may fold std::tan at compile time instead, and the
     * folded value can differ from libm's in the last bit — the scene,
     * and every digest of ray state, would then depend on the
     * optimization level.
     */
    static Camera lookAt(const Vec3 &eye, const Vec3 &target,
                         const Vec3 &world_up, float vfov_degrees,
                         float aspect_ratio);

    /**
     * Primary ray through pixel (px, py) of a width x height image with
     * sub-pixel jitter (jx, jy) in [0,1) and lens samples (lx, ly) in
     * [0,1) used only when aperture > 0.
     */
    Ray
    generateRay(unsigned px, unsigned py, unsigned width, unsigned height,
                float jx = 0.5f, float jy = 0.5f, float lx = 0.5f,
                float ly = 0.5f) const
    {
        float ndc_x = (2.f * (px + jx) / width - 1.f) * tanHalfFov * aspect;
        float ndc_y = (1.f - 2.f * (py + jy) / height) * tanHalfFov;
        Vec3 dir = normalize(forward + right * ndc_x + up * ndc_y);

        Ray ray;
        ray.origin = position;
        ray.direction = dir;
        if (aperture > 0.f) {
            // Concentric-free simple disc sample from two uniforms.
            float r = aperture * std::sqrt(lx);
            float phi = 2.f * 3.14159265358979323846f * ly;
            Vec3 lens_off =
                right * (r * std::cos(phi)) + up * (r * std::sin(phi));
            Vec3 focus = position + dir * (focusDistance / dot(dir, forward));
            ray.origin = position + lens_off;
            ray.direction = normalize(focus - ray.origin);
        }
        ray.tmin = 1e-4f;
        ray.tmax = 1e30f;
        return ray;
    }
};

} // namespace vksim

#endif // VKSIM_SCENE_CAMERA_H
