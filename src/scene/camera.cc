#include "scene/camera.h"

namespace vksim {

Camera
Camera::lookAt(const Vec3 &eye, const Vec3 &target, const Vec3 &world_up,
               float vfov_degrees, float aspect_ratio)
{
    Camera cam;
    cam.position = eye;
    cam.forward = normalize(target - eye);
    cam.right = normalize(cross(cam.forward, world_up));
    cam.up = cross(cam.right, cam.forward);
    cam.tanHalfFov =
        std::tan(vfov_degrees * 3.14159265358979323846f / 360.f);
    cam.aspect = aspect_ratio;
    cam.focusDistance = length(target - eye);
    return cam;
}

} // namespace vksim
